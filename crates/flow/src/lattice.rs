//! The value-set lattice of the flow framework.
//!
//! Every analysis in this crate runs as a *least* fixpoint: facts start
//! at ⊥ (optimistic — nothing reachable, every tracked relation empty,
//! every tracked column carrying no value) and only grow until stable.
//! Value sets draw from the constants written in the spec, so the chain
//! height is bounded by the spec text itself and termination is
//! structural, not fuel-based.
//!
//! Constants are interned once per analysis, in text order, so a value
//! set is a bitset over constant ids and walking its bits visits the
//! constants sorted by text. A [`SetTable`] stores many sets of one
//! width back to back — the columns of every tracked relation, or the
//! pins of every equality class in a scope — so copying, joining and
//! meeting them reuses the table's storage instead of allocating.

/// One value set, viewed out of a [`SetTable`] or named directly: ⊤
/// (any value, including data never written in the spec — database
/// columns, input-constant witnesses), a bitset over constant ids, or a
/// single constant.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Vals<'a> {
    Top,
    Set(&'a [u64]),
    One(usize),
}

fn has_bit(bits: &[u64], c: usize) -> bool {
    bits[c / 64] & (1 << (c % 64)) != 0
}

impl Vals<'_> {
    /// Could this column carry constant `c`?
    pub(crate) fn admits(self, c: usize) -> bool {
        match self {
            Vals::Top => true,
            Vals::Set(bits) => has_bit(bits, c),
            Vals::One(k) => k == c,
        }
    }

    /// Exactly the one constant `c`?
    pub(crate) fn is_only(self, c: usize) -> bool {
        match self {
            Vals::Top => false,
            Vals::Set(bits) => {
                has_bit(bits, c) && bits.iter().map(|w| w.count_ones()).sum::<u32>() == 1
            }
            Vals::One(k) => k == c,
        }
    }

    /// Both finite, with no constant in common?
    pub(crate) fn disjoint(self, other: Vals<'_>) -> bool {
        match (self, other) {
            (Vals::Top, _) | (_, Vals::Top) => false,
            (Vals::One(c), v) | (v, Vals::One(c)) => !v.admits(c),
            (Vals::Set(a), Vals::Set(b)) => a.iter().zip(b).all(|(x, y)| x & y == 0),
        }
    }

    /// Render for provenance notes: `{"a", "b"}` (sorted by constant
    /// text, which is id order) or `any value` for ⊤.
    pub(crate) fn describe(self, consts: &[String]) -> String {
        let items: Vec<String> = match self {
            Vals::Top => return "any value".to_string(),
            Vals::One(c) => vec![format!("{:?}", consts[c])],
            Vals::Set(bits) => (0..consts.len())
                .filter(|&c| has_bit(bits, c))
                .map(|c| format!("{:?}", consts[c]))
                .collect(),
        };
        format!("{{{}}}", items.join(", "))
    }
}

/// Value sets of one width (`words` 64-bit words each), stored back to
/// back and addressed by index.
#[derive(Clone, Debug, Default)]
pub(crate) struct SetTable {
    words: usize,
    top: Vec<bool>,
    bits: Vec<u64>,
}

impl SetTable {
    /// An empty table of sets over `consts` constants.
    pub(crate) fn new(consts: usize) -> SetTable {
        let mut t = SetTable::default();
        t.reset(consts);
        t
    }

    /// Drop every entry (keeping the storage) and set the width.
    pub(crate) fn reset(&mut self, consts: usize) {
        self.words = consts.div_ceil(64);
        self.top.clear();
        self.bits.clear();
    }

    /// Make this table an exact copy of `other`, reusing storage.
    pub(crate) fn copy_from(&mut self, other: &SetTable) {
        self.words = other.words;
        self.top.clone_from(&other.top);
        self.bits.clone_from(&other.bits);
    }

    pub(crate) fn len(&self) -> usize {
        self.top.len()
    }

    /// Append a ⊤ (`top`) or ⊥ entry; returns its index.
    pub(crate) fn push(&mut self, top: bool) -> usize {
        self.top.push(top);
        self.bits.resize(self.bits.len() + self.words, 0);
        self.top.len() - 1
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    pub(crate) fn get(&self, i: usize) -> Vals<'_> {
        if self.top[i] {
            Vals::Top
        } else {
            Vals::Set(self.row(i))
        }
    }

    /// Definitely no value at all?
    pub(crate) fn is_bottom(&self, i: usize) -> bool {
        !self.top[i] && self.row(i).iter().all(|&w| w == 0)
    }

    /// Least upper bound into entry `i`; `true` if it grew.
    pub(crate) fn join(&mut self, i: usize, v: Vals<'_>) -> bool {
        if self.top[i] {
            return false;
        }
        match v {
            Vals::Top => {
                self.top[i] = true;
                true
            }
            Vals::Set(src) => {
                let mut grew = false;
                for (d, s) in self.row_mut(i).iter_mut().zip(src) {
                    grew |= *s & !*d != 0;
                    *d |= s;
                }
                grew
            }
            Vals::One(c) => {
                let (w, b) = (c / 64, 1u64 << (c % 64));
                let slot = &mut self.row_mut(i)[w];
                let grew = *slot & b == 0;
                *slot |= b;
                grew
            }
        }
    }

    /// Greatest lower bound into entry `i` (pinning a variable: each
    /// constraint narrows what it may be); `true` if it changed.
    pub(crate) fn meet(&mut self, i: usize, v: Vals<'_>) -> bool {
        match v {
            Vals::Top => false,
            Vals::Set(src) => {
                if std::mem::take(&mut self.top[i]) {
                    self.row_mut(i).copy_from_slice(src);
                    return true;
                }
                let mut changed = false;
                for (d, s) in self.row_mut(i).iter_mut().zip(src) {
                    changed |= *d & !s != 0;
                    *d &= s;
                }
                changed
            }
            Vals::One(c) => {
                let was_top = std::mem::take(&mut self.top[i]);
                let (w, b) = (c / 64, 1u64 << (c % 64));
                let row = self.row_mut(i);
                let kept = was_top || row[w] & b != 0;
                let before: u32 = row.iter().map(|x| x.count_ones()).sum();
                row.fill(0);
                if kept {
                    row[w] = b;
                }
                // the result is a subset of a finite entry: it changed
                // exactly when it lost constants
                was_top || before != u32::from(kept)
            }
        }
    }

    /// Narrow entry `i` by entry `j` of the same table; `true` if `i`
    /// changed.
    pub(crate) fn meet_entry(&mut self, i: usize, j: usize) -> bool {
        if self.top[j] {
            return false;
        }
        let w = self.words;
        if std::mem::take(&mut self.top[i]) {
            self.bits.copy_within(j * w..(j + 1) * w, i * w);
            return true;
        }
        let mut changed = false;
        for k in 0..w {
            let s = self.bits[j * w + k];
            let d = &mut self.bits[i * w + k];
            changed |= *d & !s != 0;
            *d &= s;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts() -> Vec<String> {
        ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
    }

    /// A one-entry-per-set table holding the given constant ids.
    fn set(t: &mut SetTable, ids: &[usize]) -> usize {
        let i = t.push(false);
        for &c in ids {
            t.join(i, Vals::One(c));
        }
        i
    }

    #[test]
    fn values_join_meet() {
        let cs = consts();
        let mut t = SetTable::new(cs.len());
        let v = t.push(false);
        assert!(t.is_bottom(v));
        let ab = set(&mut t, &[0, 1]);
        let ab_bits = t.row(ab).to_vec();
        assert!(t.join(v, Vals::Set(&ab_bits)));
        assert!(!t.join(v, Vals::Set(&ab_bits)), "join is idempotent");
        assert!(t.get(v).admits(0) && !t.get(v).admits(2));
        let bc = set(&mut t, &[1, 2]);
        let met = set(&mut t, &[0, 1]);
        assert!(t.meet_entry(met, bc));
        assert_eq!(t.get(met).describe(&cs), "{\"b\"}");
        assert!(t.join(v, Vals::Top));
        assert!(matches!(t.get(v), Vals::Top));
        assert!(!t.join(v, Vals::One(2)), "⊤ absorbs joins");
        assert!(t.meet_entry(v, bc), "⊤ meet a set is that set");
        assert_eq!(t.get(v).describe(&cs), "{\"b\", \"c\"}");
    }

    #[test]
    fn singleton_meets_report_change_and_dry_up() {
        let cs = consts();
        let mut t = SetTable::new(cs.len());
        let x = t.push(true);
        assert!(t.meet(x, Vals::One(1)), "⊤ narrows to the constant");
        assert!(!t.meet(x, Vals::One(1)), "re-pinning to the same constant is no change");
        assert!(t.get(x).is_only(1));
        assert!(t.meet(x, Vals::One(0)));
        assert!(t.is_bottom(x), "two different constants leave nothing");
        let y = set(&mut t, &[0, 2]);
        assert!(t.meet(y, Vals::One(2)));
        assert_eq!(t.get(y).describe(&cs), "{\"c\"}");
        assert!(!t.meet(y, Vals::Top), "meeting ⊤ never narrows");
    }

    #[test]
    fn rendering_and_set_relations() {
        let cs = consts();
        let mut t = SetTable::new(cs.len());
        let all = set(&mut t, &[2, 0, 1]);
        assert_eq!(t.get(all).describe(&cs), "{\"a\", \"b\", \"c\"}");
        assert_eq!(Vals::Top.describe(&cs), "any value");
        let empty = t.push(false);
        assert_eq!(t.get(empty).describe(&cs), "{}");
        let a = set(&mut t, &[0]);
        let bc = set(&mut t, &[1, 2]);
        assert!(t.get(a).disjoint(t.get(bc)));
        assert!(!t.get(all).disjoint(t.get(bc)));
        assert!(!Vals::Top.disjoint(t.get(a)));
        assert!(Vals::One(1).disjoint(t.get(a)));
    }

    #[test]
    fn sets_wider_than_one_word() {
        let cs: Vec<String> = (0..130).map(|i| format!("k{i:03}")).collect();
        let mut t = SetTable::new(cs.len());
        let x = set(&mut t, &[3, 64, 129]);
        let y = set(&mut t, &[64, 129]);
        assert!(t.meet_entry(x, y));
        assert!(!t.get(x).admits(3) && t.get(x).admits(129));
        assert_eq!(t.get(x).describe(&cs), "{\"k064\", \"k129\"}");
        let mut copy = SetTable::default();
        copy.copy_from(&t);
        assert!(copy.meet(x, Vals::One(129)));
        assert!(copy.get(x).is_only(129) && !t.get(x).is_only(129));
    }
}
