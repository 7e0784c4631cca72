//! The machine-type forest of §V (Fig. 2).
//!
//! Node `i`'s parent is the lowest-indexed type `j > i` whose amortized
//! rate is no larger: `r̂_i/g_i ≥ r̂_j/g_j` (on the power-of-2-normalized
//! rates). The construction yields a forest where every tree spans a
//! consecutive range of types and each root is the highest index in its
//! tree; the amortized rate strictly decreases along every leaf-to-root
//! path's parent steps.

use bshm_core::machine::TypeIndex;
use bshm_core::normalize::NormalizedCatalog;

/// The §V forest over a normalized catalog's types.
#[derive(Clone, Debug)]
pub struct TypeForest {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    postorder: Vec<usize>,
}

impl TypeForest {
    /// Builds the forest.
    #[must_use]
    pub fn build(norm: &NormalizedCatalog) -> Self {
        let m = norm.len();
        let mut parent: Vec<Option<usize>> = vec![None; m];
        for (i, slot) in parent.iter_mut().enumerate() {
            // Lowest j > i with r̂_i/g_i ≥ r̂_j/g_j ⟺ r̂_i·g_j ≥ r̂_j·g_i.
            let ri = u128::from(norm.rate_pow2(TypeIndex(i)));
            let gi = u128::from(norm.catalog().get(TypeIndex(i)).capacity);
            *slot = (i + 1..m).find(|&j| {
                let rj = u128::from(norm.rate_pow2(TypeIndex(j)));
                let gj = u128::from(norm.catalog().get(TypeIndex(j)).capacity);
                ri * gj >= rj * gi
            });
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        // Postorder: children (ascending) before their parent, roots in
        // ascending order. Children lists are already ascending.
        let mut postorder = Vec::with_capacity(m);
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, next child idx)
        for root in (0..m).filter(|&i| parent[i].is_none()) {
            stack.push((root, 0));
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < children[node].len() {
                    let child = children[node][*next];
                    *next += 1;
                    stack.push((child, 0));
                } else {
                    postorder.push(node);
                    stack.pop();
                }
            }
        }
        Self {
            parent,
            children,
            postorder,
        }
    }

    /// Number of nodes (= normalized types).
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false (catalogs are non-empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of node `i`, `None` for roots.
    #[must_use]
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Children of node `i`, ascending.
    #[must_use]
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Whether node `i` is a root.
    #[must_use]
    pub fn is_root(&self, i: usize) -> bool {
        self.parent[i].is_none()
    }

    /// Nodes in postorder (children before parents).
    #[must_use]
    pub fn postorder(&self) -> &[usize] {
        &self.postorder
    }

    /// The path from `i` to its root, inclusive of both.
    #[must_use]
    pub fn ancestor_path(&self, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The §V bottom-strip count for a non-root node `j` with parent `k`:
    /// `⌈(1/√|C(k)|) · r̂_k/r̂_j⌉`, computed exactly (smallest `B` with
    /// `B²·|C(k)| ≥ (r̂_k/r̂_j)²`). `None` for roots.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "B is at most the u64 rate ratio r̂_k/r̂_j"
    )]
    pub fn bottom_strips(&self, j: usize, norm: &NormalizedCatalog) -> Option<u64> {
        let k = self.parent[j]?;
        let c = u128::from(bshm_core::convert::count_u64(self.children[k].len()));
        let ratio = u128::from(norm.rate_pow2(TypeIndex(k)) / norm.rate_pow2(TypeIndex(j)));
        let target = ratio * ratio;
        // Smallest B ≥ 1 with B²·c ≥ ratio².
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "float estimate only seeds the exact loops below, which correct any rounding"
        )]
        let mut b = ((target as f64 / c as f64).sqrt().ceil()) as u128;
        b = b.max(1);
        while b * b * c < target {
            b += 1;
        }
        while b > 1 && (b - 1) * (b - 1) * c >= target {
            b -= 1;
        }
        Some(u64::try_from(b).expect("strip count fits u64"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::machine::{Catalog, MachineType};

    fn norm(types: Vec<(u64, u64)>) -> NormalizedCatalog {
        let catalog = Catalog::new(
            types
                .into_iter()
                .map(|(g, r)| MachineType::new(g, r))
                .collect(),
        )
        .unwrap();
        NormalizedCatalog::from_catalog(&catalog)
    }

    #[test]
    fn dec_catalog_is_a_path() {
        // Amortized rates strictly decrease → parent(i) = i+1.
        let n = norm(vec![(4, 1), (16, 2), (64, 4)]);
        let f = TypeForest::build(&n);
        assert_eq!(f.parent(0), Some(1));
        assert_eq!(f.parent(1), Some(2));
        assert_eq!(f.parent(2), None);
        assert_eq!(f.postorder(), &[0, 1, 2]);
        assert_eq!(f.ancestor_path(0), vec![0, 1, 2]);
    }

    #[test]
    fn inc_catalog_is_all_roots() {
        // Amortized rates strictly increase → nobody has a parent.
        let n = norm(vec![(4, 1), (16, 8), (64, 64)]);
        let f = TypeForest::build(&n);
        for i in 0..f.len() {
            assert!(f.is_root(i));
        }
        assert_eq!(f.postorder(), &[0, 1, 2]);
    }

    #[test]
    fn sawtooth_builds_trees() {
        // Amortized: 1/4, 2/16=0.125, 4/20=0.2, 8/128=0.0625.
        // parent(0): lowest j with 1/4 ≥ r_j/g_j → j=1 (0.125) ✓.
        // parent(1): j=2? 0.125 ≥ 0.2 no; j=3: 0.125 ≥ 0.0625 ✓ → 3.
        // parent(2): j=3: 0.2 ≥ 0.0625 ✓ → 3.
        let n = norm(vec![(4, 1), (16, 2), (20, 4), (128, 8)]);
        let f = TypeForest::build(&n);
        assert_eq!(f.parent(0), Some(1));
        assert_eq!(f.parent(1), Some(3));
        assert_eq!(f.parent(2), Some(3));
        assert_eq!(f.parent(3), None);
        assert_eq!(f.children(3), &[1, 2]);
        assert_eq!(f.postorder(), &[0, 1, 2, 3]);
        assert_eq!(f.ancestor_path(0), vec![0, 1, 3]);
    }

    #[test]
    fn trees_span_consecutive_ranges() {
        // Property from the paper: if a tree contains i < j it contains
        // everything between.
        let n = norm(vec![(2, 1), (8, 2), (10, 4), (64, 8), (80, 16), (1024, 32)]);
        let f = TypeForest::build(&n);
        // Find the root of each node; nodes with the same root must be a
        // consecutive index range.
        let root_of = |mut i: usize| {
            while let Some(p) = f.parent(i) {
                i = p;
            }
            i
        };
        let roots: Vec<usize> = (0..f.len()).map(root_of).collect();
        for w in roots.windows(2) {
            // Root indices are non-decreasing ⇒ trees are contiguous.
            assert!(w[0] <= w[1], "roots {roots:?}");
        }
    }

    #[test]
    fn bottom_strips_exact_ceiling() {
        // parent k=3 has 2 children, ratio r̂_3/r̂_1 = 8/2 = 4 →
        // B = ceil(4/√2) = ceil(2.83) = 3.
        let n = norm(vec![(4, 1), (16, 2), (20, 4), (128, 8)]);
        let f = TypeForest::build(&n);
        assert_eq!(f.bottom_strips(1, &n), Some(3));
        // Node 2: ratio 8/4 = 2 → ceil(2/√2) = 2.
        assert_eq!(f.bottom_strips(2, &n), Some(2));
        // Node 0: parent 1, |C(1)| = 1, ratio 2 → 2.
        assert_eq!(f.bottom_strips(0, &n), Some(2));
        assert_eq!(f.bottom_strips(3, &n), None);
    }

    #[test]
    fn single_type_forest() {
        let n = norm(vec![(4, 3)]);
        let f = TypeForest::build(&n);
        assert_eq!(f.len(), 1);
        assert!(f.is_root(0));
        assert_eq!(f.postorder(), &[0]);
    }
}
