//! Content hashes and configuration fingerprints — the keying vocabulary
//! of the [`ResultStore`](crate::ResultStore)'s scenario keys.
//!
//! The store keys recorded outcomes by *what produced them*: the netlist
//! content, the cell library, the variation model, and the campaign
//! knobs. The hash of each ingredient is defined **once**, here, on top
//! of [`wire::fnv1a`](crate::wire::fnv1a), so every caller that needs
//! "same netlist" gets the same answer; the definitions live in one
//! audited module with their own separation tests.
//!
//! Hash inputs are canonical textual forms: the netlist through its
//! canonical `.bench` serialization ([`statsize_netlist::bench::write`],
//! which captures generator seeds by construction — two different seeds
//! produce different gate structures and therefore different text), the
//! library and variation model through their `Debug` renderings (every
//! field shows up, so any parameter change reseeds the hash). FNV-1a is
//! stable and dependency-free; collisions only cause a wrongly *reused*
//! outcome if the colliding inputs also match on every other key
//! component.

use crate::wire::fnv1a;
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::Netlist;

/// FNV-1a hash of the netlist's canonical `.bench` serialization. Two
/// netlists hash equal exactly when their canonical text is identical —
/// gate structure, net names, and ordering all included.
pub fn netlist_content_hash(netlist: &Netlist) -> u64 {
    fnv1a(statsize_netlist::bench::write(netlist).as_bytes())
}

/// FNV-1a fingerprint of a cell library: name, every cell, every
/// parameter. Outcomes computed under one library must never be reused
/// under another — every delay in every outcome is a function of it.
pub fn library_fingerprint(library: &CellLibrary) -> u64 {
    fnv1a(format!("{library:?}").as_bytes())
}

/// FNV-1a fingerprint of a variation model (distribution shape, sigma
/// fraction, truncation — every field of its `Debug` form).
pub fn variation_fingerprint(variation: &VariationModel) -> u64 {
    fnv1a(format!("{variation:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_netlist::{bench, generator};

    #[test]
    fn netlist_hash_tracks_content_not_identity() {
        let a = bench::c17();
        let b = bench::c17();
        assert_eq!(
            netlist_content_hash(&a),
            netlist_content_hash(&b),
            "equal content must hash equal across instances"
        );
        let c432 = generator::generate_iscas("c432", 1).unwrap();
        assert_ne!(netlist_content_hash(&a), netlist_content_hash(&c432));
        // The generator seed changes the produced structure, and the
        // content hash must see that.
        let s3 = generator::generate_scaled(&generator::ScaledProfile::with_nodes(300), 3);
        let s4 = generator::generate_scaled(&generator::ScaledProfile::with_nodes(300), 4);
        assert_ne!(
            netlist_content_hash(&s3),
            netlist_content_hash(&s4),
            "generator seed must separate content hashes"
        );
    }

    #[test]
    fn library_fingerprint_separates_libraries() {
        let lib = CellLibrary::synthetic_180nm();
        assert_eq!(
            library_fingerprint(&lib),
            library_fingerprint(&CellLibrary::synthetic_180nm())
        );
        let renamed = CellLibrary::new("other-process", lib.cells().to_vec());
        assert_ne!(library_fingerprint(&lib), library_fingerprint(&renamed));
    }

    #[test]
    fn variation_fingerprint_separates_models() {
        let paper = VariationModel::paper_default();
        assert_eq!(variation_fingerprint(&paper), variation_fingerprint(&paper));
        let wider = VariationModel::new(0.25, 3.0);
        assert_ne!(variation_fingerprint(&paper), variation_fingerprint(&wider));
    }
}
