//! Scaled synthetic stand-ins for the paper's datasets (Table 2).
//!
//! The paper evaluates on eight real-world graphs ranging from 1.9 M to 61.6 M
//! vertices. This registry generates structurally similar graphs at a size that
//! runs in seconds on a laptop: road networks become 2D lattices (bounded
//! degree, huge diameter), social/web networks become RMAT graphs (skewed
//! degrees, small diameter), and the citation network becomes a
//! preferential-attachment graph. Every dataset can be scaled with
//! [`DatasetSpec::scaled`].

use crate::{gen, CsrGraph};

/// Structural family of a dataset, mirroring the categories in Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFamily {
    /// Road network: bounded degree, very large diameter (Ca, Us, Eu).
    Road,
    /// Social network: power-law degrees, small diameter (Or, Lj, Tw).
    Social,
    /// Hyperlink / web graph (Wk).
    Web,
    /// Citation network: sparse power-law (Pt).
    Citation,
}

/// A named synthetic dataset specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Short name used in the paper's tables ("Ca", "Lj", …).
    pub name: &'static str,
    /// Structural family, which selects the generator.
    pub family: GraphFamily,
    /// Approximate number of vertices at scale 1.0.
    pub base_vertices: usize,
    /// Target average degree.
    pub avg_degree: usize,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generate the graph at scale 1.0.
    pub fn generate(&self) -> CsrGraph {
        self.scaled(1.0)
    }

    /// Generate the graph with the vertex count multiplied by `scale`
    /// (clamped to at least 64 vertices).
    pub fn scaled(&self, scale: f64) -> CsrGraph {
        let n = ((self.base_vertices as f64 * scale) as usize).max(64);
        match self.family {
            GraphFamily::Road => {
                let side = (n as f64).sqrt().ceil() as usize;
                gen::grid2d(side, side, 0.02, self.seed)
            }
            GraphFamily::Social | GraphFamily::Web => {
                let scale_log = (n as f64).log2().ceil() as u32;
                gen::rmat(scale_log, (self.avg_degree / 2).max(1), self.seed)
            }
            GraphFamily::Citation => {
                gen::preferential_attachment(n, (self.avg_degree / 2).max(1), self.seed)
            }
        }
    }

    /// Generate the weighted variant used by SSSP-based workloads (weights
    /// uniform in `[1, log2 |V|)`, as in the paper).
    pub fn generate_weighted(&self, scale: f64) -> CsrGraph {
        let g = self.scaled(scale);
        let max_w = (g.num_vertices() as f64).log2().ceil().max(2.0) as u32;
        g.with_random_weights(max_w, self.seed ^ 0xdead_beef)
    }

    /// Whether the family is a road network (high diameter).
    pub fn is_road(&self) -> bool {
        self.family == GraphFamily::Road
    }
}

/// California road network stand-in (1.9 M vertices in the paper).
pub const CA: DatasetSpec = DatasetSpec {
    name: "Ca",
    family: GraphFamily::Road,
    base_vertices: 16_384,
    avg_degree: 3,
    seed: 101,
};
/// USA road network stand-in (23.9 M vertices in the paper).
pub const US: DatasetSpec = DatasetSpec {
    name: "Us",
    family: GraphFamily::Road,
    base_vertices: 40_000,
    avg_degree: 3,
    seed: 102,
};
/// Europe road network stand-in (50.9 M vertices in the paper).
pub const EU: DatasetSpec = DatasetSpec {
    name: "Eu",
    family: GraphFamily::Road,
    base_vertices: 65_536,
    avg_degree: 3,
    seed: 103,
};
/// Orkut social network stand-in (3.1 M vertices, avg degree 38).
pub const OR: DatasetSpec = DatasetSpec {
    name: "Or",
    family: GraphFamily::Social,
    base_vertices: 16_384,
    avg_degree: 30,
    seed: 104,
};
/// Wikipedia hyperlink graph stand-in (3.6 M vertices, avg degree 12.6).
pub const WK: DatasetSpec = DatasetSpec {
    name: "Wk",
    family: GraphFamily::Web,
    base_vertices: 16_384,
    avg_degree: 12,
    seed: 105,
};
/// LiveJournal social network stand-in (4.8 M vertices, avg degree 18).
pub const LJ: DatasetSpec = DatasetSpec {
    name: "Lj",
    family: GraphFamily::Social,
    base_vertices: 32_768,
    avg_degree: 18,
    seed: 106,
};
/// Patents citation network stand-in (16.5 M vertices, avg degree 2).
pub const PT: DatasetSpec = DatasetSpec {
    name: "Pt",
    family: GraphFamily::Citation,
    base_vertices: 40_000,
    avg_degree: 2,
    seed: 107,
};
/// Twitter social network stand-in (61.6 M vertices, avg degree 23.8).
pub const TW: DatasetSpec = DatasetSpec {
    name: "Tw",
    family: GraphFamily::Social,
    base_vertices: 65_536,
    avg_degree: 24,
    seed: 108,
};

/// All eight datasets in Table 2 order.
pub fn all() -> [DatasetSpec; 8] {
    [CA, US, EU, OR, WK, LJ, PT, TW]
}

/// The social/web graphs used in the NCP experiments (Or, Wk, Lj, Pt, Tw).
pub fn ncp_graphs() -> [DatasetSpec; 5] {
    [OR, WK, LJ, PT, TW]
}

/// Look a dataset up by its short name (case-insensitive).
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all().into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_eight_datasets_with_unique_names() {
        let specs = all();
        assert_eq!(specs.len(), 8);
        let mut names: Vec<_> = specs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("lj").unwrap().name, "Lj");
        assert_eq!(by_name("TW").unwrap().name, "Tw");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn road_graphs_have_bounded_degree() {
        let g = CA.scaled(0.2);
        let max_deg = (0..g.num_vertices() as u32).map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg <= 16, "road max degree {max_deg}");
        assert!(g.avg_degree() < 6.0);
    }

    #[test]
    fn social_graphs_are_skewed() {
        let g = LJ.scaled(0.25);
        let max_deg = (0..g.num_vertices() as u32).map(|v| g.out_degree(v)).max().unwrap();
        assert!(
            max_deg as f64 > 10.0 * g.avg_degree(),
            "social max degree {max_deg} avg {}",
            g.avg_degree()
        );
    }

    #[test]
    fn scaling_changes_size() {
        let small = US.scaled(0.05);
        let large = US.scaled(0.2);
        assert!(large.num_vertices() > small.num_vertices());
    }

    #[test]
    fn weighted_variant_has_weights_in_range() {
        let g = CA.generate_weighted(0.1);
        assert!(g.is_weighted());
        let max_w = (g.num_vertices() as f64).log2().ceil() as u32;
        for (_, _, w) in g.edges().take(1000) {
            assert!(w >= 1 && w <= max_w);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(WK.scaled(0.1), WK.scaled(0.1));
    }
}
