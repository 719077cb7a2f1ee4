//! Postings conformance at the layout's own level: a family of runs
//! under random inserts, removals and batches of both — pools small
//! enough that runs fill up, relocate, empty and come back — against
//! the obvious definition. After every step each run must equal the
//! brute-force filter of the live entries in `(start, end, id)` order,
//! the family must equal one built in bulk from those entries (which
//! compares the running maxima too), a window walk must find exactly
//! what intersects the window, and the arena must keep its space
//! bounds.

use proptest::prelude::*;
use tecore_kg::{overlapping, reaching, FactId, Posting, Postings};
use tecore_temporal::Interval;

type Entry = Posting<FactId, u8>;
type Family = Postings<u8, FactId, u8>;

/// `(op, key, start, len, count)`: op 0–2 inserts one entry, 3 removes
/// the `start`-th live entry of the key, 4 patches the key with `count`
/// inserts and about half as many removals, 5 takes out all but
/// `count % 3` entries of the key (a big run left nearly empty).
type Op = (u8, u8, i64, i64, u16);

fn iv(start: i64, len: i64) -> Interval {
    Interval::new(start, start + len).unwrap()
}

/// The live entries, by key, and the next id to hand out.
#[derive(Default)]
struct Model {
    live: Vec<(u8, Entry)>,
    next: u32,
}

impl Model {
    fn entry(&mut self, start: i64, len: i64) -> Entry {
        self.next += 1;
        Posting::new(iv(start, len), FactId(self.next), (self.next % 7) as u8)
    }

    fn of(&self, key: u8) -> Vec<Entry> {
        self.live
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|&(_, e)| e)
            .collect()
    }

    fn take(&mut self, key: u8, nth: usize) -> Option<Entry> {
        let of_key: Vec<usize> = (0..self.live.len())
            .filter(|&i| self.live[i].0 == key)
            .collect();
        let at = *of_key.get(nth % of_key.len().max(1))?;
        Some(self.live.swap_remove(at).1)
    }

    /// Puts `n` fresh entries into the run of `key`, as one patch.
    fn fill(&mut self, family: &mut Family, key: u8, n: i64) {
        let mut new: Vec<Entry> = (0..n).map(|k| self.entry(k % 37, k % 5)).collect();
        self.live.extend(new.iter().map(|&e| (key, e)));
        family.patch(key, &mut [], &mut new);
    }

    fn apply(&mut self, family: &mut Family, (op, key, start, len, count): Op) {
        let (mut gone, mut new) = (Vec::new(), Vec::new());
        match op {
            0..=2 => new.push(self.entry(start, len)),
            3 => gone.extend(self.take(key, start.unsigned_abs() as usize)),
            4 => {
                for k in 0..usize::from(count) {
                    new.push(self.entry(start + (k as i64 * 7) % 23, (len + k as i64) % 5));
                    if k % 2 == 0 {
                        gone.extend(self.take(key, k * 13));
                    }
                }
            }
            _ => {
                let mut keep = count % 3;
                self.live.retain(|&(k, e)| {
                    let stays = k != key || keep > 0;
                    keep -= u16::from(k == key && stays);
                    if !stays {
                        gone.push(e);
                    }
                    stays
                });
            }
        }
        self.live.extend(new.iter().map(|&e| (key, e)));
        // Now and then a removal of what is not there: ignored.
        if op == 3 {
            gone.push(Posting::new(iv(start, len), FactId(u32::MAX), 0));
        }
        family.patch(key, &mut gone, &mut new);
    }
}

fn columns<'a>(entries: impl IntoIterator<Item = &'a Entry>) -> Vec<(Interval, FactId, u8)> {
    entries
        .into_iter()
        .map(|e| (e.interval, e.id, e.third))
        .collect()
}

fn assert_family(family: &Family, model: &Model, keys: u8, windows: &[(i64, i64)]) {
    assert_eq!(family, &Family::bulk(model.live.clone()), "≡ a bulk build");
    for key in 0..keys {
        let mut expected = model.of(key);
        expected.sort_unstable_by_key(|e| (e.interval, e.id));
        let run = family.run(key);
        assert_eq!(columns(run), columns(&expected), "the run of {key}");
        for &(start, len) in windows {
            let window = iv(start, len);
            let meets = |e: &&Entry| e.interval.intersects(window);
            let mut hits = columns(expected.iter().filter(meets));
            let probed = columns(reaching(run, window).filter(meets));
            assert_eq!(probed, hits, "{key} ∩ {window}, earliest first");
            hits.reverse();
            assert_eq!(columns(overlapping(run, window)), hits);
        }
    }
    let (entries, slots, holes) = family.space();
    assert_eq!(entries, model.live.len());
    assert!(holes <= entries, "{holes} dead slots for {entries} entries");
    assert!(slots <= 3 * entries, "{slots} slots for {entries} entries");
}

fn arb_ops(keys: u8, count: u16) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0..keys, 0i64..40, 0i64..12, 0..count), 0..50)
}

fn arb_windows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((-2i64..50, 0i64..15), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Four keys: runs relocate past one another, empty, come back, and
    /// the arena is rewritten when the dead space says so.
    #[test]
    fn a_churned_family_matches_brute_force(ops in arb_ops(4, 24), windows in arb_windows()) {
        let (mut family, mut model) = (Family::default(), Model::default());
        for op in ops {
            model.apply(&mut family, op);
            assert_family(&family, &model, 4, &windows);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One key, as the index's run of every fact: a tail run that grows
    /// in place to 10⁴ entries, 500 at a time, churned from there.
    #[test]
    fn a_single_run_family_grows_in_place(ops in arb_ops(1, 400), windows in arb_windows()) {
        let (mut family, mut model) = (Family::default(), Model::default());
        for op in ops {
            while model.live.len() < 10_000 {
                model.fill(&mut family, 0, 500);
                assert_eq!(family.space().2, 0, "one run leaves no hole behind");
            }
            model.apply(&mut family, op);
            assert_family(&family, &model, 1, &windows);
            assert_eq!(family.space().2, 0, "one run leaves no hole behind");
        }
    }
}

/// A run emptied by removals leaves the directory; refilled, it comes
/// back at the arena's tail; a compaction after that copies only live
/// runs and never reads a slot of another run — nor of an empty arena.
#[test]
fn an_emptied_run_refilled_survives_a_compaction() {
    let (mut family, mut model) = (Family::default(), Model::default());
    for key in 0..3 {
        model.apply(&mut family, (4, key, 10 * i64::from(key), 2, 6));
    }
    model.apply(&mut family, (5, 1, 0, 0, 0));
    assert!(family.run(1).is_empty());
    assert_eq!(family.space().2, 6, "its slots are dead space");
    assert_family(&family, &model, 3, &[(0, 40)]);
    model.apply(&mut family, (0, 1, 7, 3, 0));
    assert_family(&family, &model, 3, &[(0, 40)]);
    // Relocations until the dead space outnumbers the entries.
    let mut compacted = false;
    for round in 0..40 {
        model.apply(&mut family, (0, round % 3, i64::from(round), 1, 0));
        compacted |= family.space().2 == 0;
        assert_family(&family, &model, 3, &[(0, 40), (5, 2)]);
    }
    assert!(compacted, "the arena was rewritten");
    // Everything out: the arena is rewritten empty.
    for key in 0..3 {
        model.apply(&mut family, (5, key, 0, 0, 0));
        assert_family(&family, &model, 3, &[(0, 40)]);
    }
    assert_eq!(family.space(), (0, 0, 0));
}
