//! Threshold parameters and the branching tree of code versions.
//!
//! Every application of rule G3/G9 mints fresh threshold parameters. Like
//! Futhark's implementation, each threshold records the *path* of
//! ancestor comparisons under which its guard is reachable — this is the
//! branching-tree structure (Fig. 5) that the autotuner exploits to
//! short-circuit duplicate parameter assignments (§4.2).

use flat_ir::prov::Prov;
use flat_ir::ThresholdId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// What a threshold guards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdKind {
    /// "Is the outer parallelism alone sufficient?" — guards `e_top`.
    SuffOuter,
    /// "Is outer × intra-group parallelism sufficient?" — guards
    /// `e_middle`.
    SuffIntra,
}

/// Metadata for one threshold parameter.
#[derive(Clone, Debug)]
pub struct ThresholdInfo {
    pub id: ThresholdId,
    /// Human-readable name, e.g. `suff_outer_par_2`.
    pub name: String,
    pub kind: ThresholdKind,
    /// The comparisons (and their required outcomes) that must hold for
    /// this threshold's guard to be evaluated at run time.
    pub path: Vec<(ThresholdId, bool)>,
    /// Provenance of the source construct (map nest / redomap) whose
    /// versions this threshold guards.
    pub prov: Prov,
}

/// The registry of all thresholds minted while flattening one program.
#[derive(Clone, Debug, Default)]
pub struct ThresholdRegistry {
    infos: Vec<ThresholdInfo>,
}

impl ThresholdRegistry {
    pub fn new() -> ThresholdRegistry {
        ThresholdRegistry::default()
    }

    pub fn fresh(
        &mut self,
        kind: ThresholdKind,
        path: &[(ThresholdId, bool)],
    ) -> ThresholdId {
        self.fresh_at(kind, path, Prov::UNKNOWN)
    }

    /// Mint a threshold recording the provenance of the construct whose
    /// versions it guards.
    pub fn fresh_at(
        &mut self,
        kind: ThresholdKind,
        path: &[(ThresholdId, bool)],
        prov: Prov,
    ) -> ThresholdId {
        let id = ThresholdId(self.infos.len() as u32);
        let prefix = match kind {
            ThresholdKind::SuffOuter => "suff_outer_par",
            ThresholdKind::SuffIntra => "suff_intra_par",
        };
        self.infos.push(ThresholdInfo {
            id,
            name: format!("{prefix}_{}", id.0),
            kind,
            path: path.to_vec(),
            prov,
        });
        id
    }

    /// Overwrite a threshold's name. The compiler itself never renames
    /// thresholds; this exists so `flat-verify`'s negative tests can
    /// corrupt a registry deliberately (rule V201) — and so external
    /// tools could attach semantic names if they ever need to.
    pub fn set_name(&mut self, id: ThresholdId, name: impl Into<String>) {
        self.infos[id.0 as usize].name = name.into();
    }

    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    pub fn ids(&self) -> impl Iterator<Item = ThresholdId> + '_ {
        self.infos.iter().map(|i| i.id)
    }

    pub fn info(&self, id: ThresholdId) -> &ThresholdInfo {
        &self.infos[id.0 as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &ThresholdInfo> {
        self.infos.iter()
    }

    /// The children of a node in the branching tree: thresholds whose
    /// path is exactly `parent_path` (root: empty path).
    pub fn children_of(&self, parent_path: &[(ThresholdId, bool)]) -> Vec<&ThresholdInfo> {
        self.infos
            .iter()
            .filter(|i| i.path == parent_path)
            .collect()
    }

    /// An upper bound on the number of distinct code-version paths: the
    /// number of leaves of the branching tree.
    pub fn num_versions(&self) -> usize {
        // Count leaves by walking the tree. Several thresholds sharing
        // the same path are independent version choices at distinct
        // program points, so their leaf counts multiply.
        fn leaves(reg: &ThresholdRegistry, path: &[(ThresholdId, bool)]) -> usize {
            let kids = reg.children_of(path);
            if kids.is_empty() {
                return 1;
            }
            kids.iter()
                .map(|k| {
                    let mut t = path.to_vec();
                    t.push((k.id, true));
                    let mut f = path.to_vec();
                    f.push((k.id, false));
                    leaves(reg, &t) + leaves(reg, &f)
                })
                .product()
        }
        leaves(self, &[])
    }

    /// Render the branching tree in the style of the paper's Fig. 5.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_level(&mut out, &[], 0);
        out
    }

    fn render_level(&self, out: &mut String, path: &[(ThresholdId, bool)], depth: usize) {
        for info in self.children_of(path) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = writeln!(out, "{} ({})", info.name, info.id);
            let mut t = path.to_vec();
            t.push((info.id, true));
            if !self.children_of(&t).is_empty() {
                for _ in 0..depth + 1 {
                    out.push_str("  ");
                }
                out.push_str("[true]\n");
                self.render_level(out, &t, depth + 2);
            }
            let mut f = path.to_vec();
            f.push((info.id, false));
            if !self.children_of(&f).is_empty() {
                for _ in 0..depth + 1 {
                    out.push_str("  ");
                }
                out.push_str("[false]\n");
                self.render_level(out, &f, depth + 2);
            }
        }
    }

    /// Walk the branching tree and produce, for every distinct version
    /// path, the set of threshold decisions that forces it (forcing a
    /// comparison `true` with threshold `0`, `false` with `i64::MAX`).
    /// Independent siblings at the same tree node multiply (cartesian
    /// product), so the result is capped at `cap` assignments.
    pub fn enumerate_assignments(&self, cap: usize) -> Vec<Vec<(ThresholdId, bool)>> {
        fn walk(
            reg: &ThresholdRegistry,
            prefix: &[(ThresholdId, bool)],
            cap: usize,
        ) -> Vec<Vec<(ThresholdId, bool)>> {
            let kids = reg.children_of(prefix);
            if kids.is_empty() {
                return vec![Vec::new()];
            }
            let mut product: Vec<Vec<(ThresholdId, bool)>> = vec![Vec::new()];
            for kid in kids {
                let mut options: Vec<Vec<(ThresholdId, bool)>> = Vec::new();
                for taken in [true, false] {
                    let mut below = prefix.to_vec();
                    below.push((kid.id, taken));
                    for sub in walk(reg, &below, cap) {
                        let mut opt = vec![(kid.id, taken)];
                        opt.extend(sub);
                        options.push(opt);
                    }
                }
                let mut next = Vec::new();
                'outer: for base in &product {
                    for opt in &options {
                        let mut v = base.clone();
                        v.extend(opt.iter().copied());
                        next.push(v);
                        if next.len() >= cap {
                            break 'outer;
                        }
                    }
                }
                product = next;
            }
            product
        }
        let mut out = walk(self, &[], cap);
        out.truncate(cap);
        // Deduplicate defensively (sibling products can repeat when capped).
        let mut seen = std::collections::BTreeSet::new();
        out.retain(|a| {
            let key: Vec<(u32, bool)> = a.iter().map(|(id, t)| (id.0, *t)).collect();
            seen.insert(key)
        });
        out
    }

    /// Whether a path signature is consistent with the branching tree:
    /// every compared threshold is minted here, and the ancestor
    /// comparisons its guard needs were observed with the required
    /// outcomes. Every path [`Self::enumerate_assignments`] forces, and
    /// every path a live run dispatches, passes.
    pub fn path_in_tree(&self, sig: &[(u32, bool)]) -> bool {
        sig.iter()
            .all(|&(id, _)| match self.infos.get(id as usize) {
                None => false,
                Some(info) => info
                    .path
                    .iter()
                    .all(|&(pid, pt)| sig.iter().any(|&(sid, st)| sid == pid.0 && st == pt)),
            })
    }

    /// Canonicalize a recorded execution path (sequence of comparisons
    /// with outcomes) into a signature usable as a memoization key.
    pub fn path_signature(path: &[(ThresholdId, bool)]) -> Vec<(u32, bool)> {
        let mut seen: HashMap<u32, bool> = HashMap::new();
        for (id, taken) in path {
            seen.entry(id.0).or_insert(*taken);
        }
        let mut sig: Vec<(u32, bool)> = seen.into_iter().collect();
        sig.sort_unstable();
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thresholds_are_sequential_and_named() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(a, ThresholdId(0));
        assert_eq!(b, ThresholdId(1));
        assert_eq!(reg.info(a).name, "suff_outer_par_0");
        assert_eq!(reg.info(b).name, "suff_intra_par_1");
        assert_eq!(reg.info(b).path, vec![(a, false)]);
    }

    #[test]
    fn children_and_tree_rendering() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let _b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(reg.children_of(&[]).len(), 1);
        assert_eq!(reg.children_of(&[(a, false)]).len(), 1);
        assert_eq!(reg.children_of(&[(a, true)]).len(), 0);
        let tree = reg.render_tree();
        assert!(tree.contains("suff_outer_par_0"));
        assert!(tree.contains("[false]"));
    }

    #[test]
    fn version_counting() {
        let mut reg = ThresholdRegistry::new();
        assert_eq!(reg.num_versions(), 1);
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        assert_eq!(reg.num_versions(), 2);
        let _ = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(reg.num_versions(), 3);
    }

    #[test]
    fn enumerates_the_paper_tree_shape() {
        // t0 at the root; t1 under t0=false — Fig. 5's two-level shape.
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let _b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        let asgs = reg.enumerate_assignments(32);
        // Three versions: t0 taken; t0 not taken then t1 taken; neither.
        assert_eq!(asgs.len(), 3);
        assert!(asgs.iter().any(|a| a.len() == 1 && a[0].1));
        assert!(asgs.iter().any(|a| a.len() == 2));
        for asg in &asgs {
            let sig: Vec<(u32, bool)> = asg.iter().map(|(id, t)| (id.0, *t)).collect();
            assert!(reg.path_in_tree(&sig), "{sig:?}");
        }
    }

    #[test]
    fn enumeration_respects_the_cap() {
        let mut reg = ThresholdRegistry::new();
        for _ in 0..8 {
            reg.fresh(ThresholdKind::SuffOuter, &[]);
        }
        // 2^8 = 256 full combinations, capped.
        assert!(reg.enumerate_assignments(16).len() <= 16);
    }

    #[test]
    fn path_in_tree_requires_minted_ids_and_ancestors() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert!(reg.path_in_tree(&[]));
        assert!(reg.path_in_tree(&[(a.0, true)]));
        assert!(reg.path_in_tree(&[(a.0, false), (b.0, true)]));
        // t1 is only reachable under t0=false.
        assert!(!reg.path_in_tree(&[(a.0, true), (b.0, true)]));
        assert!(!reg.path_in_tree(&[(b.0, false)]));
        // Unknown threshold.
        assert!(!reg.path_in_tree(&[(7, true)]));
    }

    #[test]
    fn path_signature_dedups_and_sorts() {
        let a = ThresholdId(3);
        let b = ThresholdId(1);
        let sig = ThresholdRegistry::path_signature(&[(a, true), (b, false), (a, true)]);
        assert_eq!(sig, vec![(1, false), (3, true)]);
    }
}

/// Serialize a threshold assignment in the `name=value` line format of
/// Futhark's `.tuning` files, using this registry's names. Thresholds
/// not present in the assignment are written with their default.
pub fn write_tuning(reg: &ThresholdRegistry, t: &flat_ir::interp::Thresholds) -> String {
    let mut out = String::new();
    for info in reg.iter() {
        let _ = writeln!(out, "{}={}", info.name, t.get(info.id));
    }
    out
}

/// Parse a `.tuning` file against this registry. Unknown names are an
/// error; missing names keep the default.
pub fn read_tuning(
    reg: &ThresholdRegistry,
    text: &str,
) -> Result<flat_ir::interp::Thresholds, String> {
    let mut t = flat_ir::interp::Thresholds::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected name=value", lineno + 1))?;
        let info = reg
            .iter()
            .find(|i| i.name == name.trim())
            .ok_or_else(|| format!("line {}: unknown threshold `{}`", lineno + 1, name))?;
        let v: i64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        t.set(info.id, v);
    }
    Ok(t)
}

#[cfg(test)]
mod tuning_file_tests {
    use super::*;
    use flat_ir::interp::Thresholds;

    fn reg2() -> (ThresholdRegistry, ThresholdId, ThresholdId) {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        (reg, a, b)
    }

    #[test]
    fn round_trips() {
        let (reg, a, b) = reg2();
        let t = Thresholds::new().with(a, 123).with(b, 1 << 20);
        let text = write_tuning(&reg, &t);
        let back = read_tuning(&reg, &text).unwrap();
        assert_eq!(back.get(a), 123);
        assert_eq!(back.get(b), 1 << 20);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (reg, a, _) = reg2();
        let t = read_tuning(&reg, "# a comment\n\nsuff_outer_par_0=7\n").unwrap();
        assert_eq!(t.get(a), 7);
    }

    #[test]
    fn unknown_name_is_an_error() {
        let (reg, _, _) = reg2();
        assert!(read_tuning(&reg, "nope=1").is_err());
    }

    #[test]
    fn malformed_line_is_an_error() {
        let (reg, _, _) = reg2();
        assert!(read_tuning(&reg, "suff_outer_par_0").is_err());
        assert!(read_tuning(&reg, "suff_outer_par_0=abc").is_err());
    }

    #[test]
    fn missing_names_keep_defaults() {
        let (reg, a, b) = reg2();
        let t = read_tuning(&reg, &format!("{}=5\n", reg.info(a).name)).unwrap();
        assert_eq!(t.get(a), 5);
        assert_eq!(t.get(b), Thresholds::DEFAULT);
    }
}
