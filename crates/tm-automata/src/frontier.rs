//! The level-synchronous frontier core shared by the two breadth-first
//! engines: the product engine's parallel BFS (`product.rs`) and the
//! run-graph build (`livecheck.rs`).
//!
//! Both engines must number what they discover exactly as a sequential
//! FIFO BFS would — counterexample words, run-graph node ids and lassos
//! depend on it — while running the expensive part on an [`Executor`].
//! One BFS level is three steps:
//!
//! 1. **Expand** ([`expand`]): the frontier is cut into contiguous
//!    chunks, one task each. A task expands its states against
//!    read-only tables and appends every successor it cannot resolve as
//!    a *candidate* to one of its per-stripe buffers ([`Buckets`]). A
//!    candidate's discovery tag is `(frontier index, edge index)`
//!    ([`tag`]): chunks are ascending frontier ranges expanded in edge
//!    order, so every buffer, and every chunk's push order, is in tag
//!    order.
//! 2. **Merge** ([`merge`]): the buffers are regrouped by stripe
//!    (pointer moves only) and the stripes are merged in parallel, each
//!    consuming its buffers in chunk order — that is, in tag order — so
//!    the first occurrence of a state wins, as it would in the FIFO BFS.
//!    A state's stripe is a function of its hash ([`stripe_of`]), so two
//!    occurrences of one state always meet in the same stripe.
//! 3. **Number** ([`in_tag_order`]): the level's candidates are walked
//!    in tag order — chunks in order, each in push order — and the
//!    winners numbered as they are met. That is the FIFO discovery order
//!    of the level, whatever the pool size or chunking.
//!
//! Levels and work lists below [`PAR_THRESHOLD`], and executors of width
//! one, run every step inline on the calling thread: the same code path,
//! without dispatch. Pool tasks publish the caller's [`Phase`] as a
//! profiler frame ([`tm_obs::phase_frame`]), so a level's work folds
//! under its phase on the `worker-N` stacks while the phase's single
//! timed span stays on the coordinating thread.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

use tm_obs::Phase;

use crate::budget::EngineError;
use crate::fxhash::FxBuildHasher;
use crate::pool::Executor;

/// Number of stripes of the striped tables. A power of two well above
/// any sane thread count, so merge workers rarely share a cache line and
/// the stripe of a state is a shift away from its hash.
pub(crate) const STRIPES: usize = 64;

/// Frontiers and per-level work lists smaller than this are processed
/// inline: dispatching a narrow level costs more than it saves.
pub(crate) const PAR_THRESHOLD: usize = 256;

/// How many units of serial work (sequential product visits, states of
/// one expansion chunk, Tarjan iterations) pass between
/// deadline/cancellation checks.
pub(crate) const INTERRUPT_STRIDE: usize = 4096;

/// The discovery tag of edge `edge` of frontier state `index`: tags
/// order candidates exactly as the sequential FIFO BFS discovers them.
#[inline]
pub(crate) fn tag(index: usize, edge: usize) -> u64 {
    (index as u64) << 32 | edge as u64
}

/// The frontier index a [`tag`] was made from.
#[inline]
pub(crate) fn tag_index(tag: u64) -> u32 {
    (tag >> 32) as u32
}

/// The FxHash of `value`: computed once per discovered edge and carried
/// along, so the stripe choice, the merge and the index lookups never
/// rehash a state.
#[inline]
pub(crate) fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    FxBuildHasher::default().hash_one(value)
}

/// The stripe of a hash. Takes the *high* bits: FxHash's final multiply
/// mixes them best, and the in-stripe tables probe on other bits of the
/// same hash (see [`HashIndex`]).
#[inline]
pub(crate) fn stripe_of(hash: u64) -> usize {
    (hash >> (64 - STRIPES.trailing_zeros())) as usize
}

/// One chunk's candidates: one buffer per stripe, plus the chunk's push
/// order. Candidates are pushed in tag order, so each buffer is in tag
/// order, and the push order — candidate `j` of the chunk sits at
/// `order[j]` — is the chunk's tag order across stripes.
pub(crate) struct Buckets<C> {
    stripes: Vec<Vec<C>>,
    order: Vec<(u32, u32)>,
}

impl<C> Default for Buckets<C> {
    fn default() -> Self {
        Buckets {
            stripes: (0..STRIPES).map(|_| Vec::new()).collect(),
            order: Vec::new(),
        }
    }
}

impl<C> Buckets<C> {
    /// Appends a candidate to stripe `stripe`'s buffer and returns its
    /// number within the chunk.
    #[inline]
    pub(crate) fn push(&mut self, stripe: usize, candidate: C) -> u32 {
        let j = u32::try_from(self.order.len()).expect("more than u32::MAX chunk candidates");
        let buffer = &mut self.stripes[stripe];
        self.order.push((stripe as u32, buffer.len() as u32));
        buffer.push(candidate);
        j
    }

    /// Candidate number `j` of the chunk (valid until [`merge`] takes the
    /// buffers).
    #[inline]
    pub(crate) fn get(&self, j: u32) -> &C {
        let (stripe, at) = self.order[j as usize];
        &self.stripes[stripe as usize][at as usize]
    }
}

/// Expansion tasks per worker: the pool hands tasks out from one queue,
/// so a few per worker let one that drew cheap states pick up more
/// instead of idling at the level barrier.
const CHUNKS_PER_WORKER: usize = 4;

/// How many chunks a frontier is cut into for an executor of width
/// `threads`: one inline, [`CHUNKS_PER_WORKER`] per worker otherwise.
fn chunk_count(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        CHUNKS_PER_WORKER * threads
    }
}

/// The contiguous, ascending chunk ranges `0..len` is cut into for an
/// executor of width `threads` (at most [`chunk_count`] of them).
fn chunks(len: usize, threads: usize) -> impl Iterator<Item = Range<usize>> {
    let size = len.div_ceil(chunk_count(threads)).max(1);
    (0..len)
        .step_by(size)
        .map(move |start| start..(start + size).min(len))
}

/// Runs `expand(range, &mut out)` over the chunks of the frontier
/// `0..len` and returns the outputs in chunk (frontier) order. Chunks are
/// tasks on `executor` when it is wider than one and the frontier is at
/// least [`PAR_THRESHOLD`] long, inline otherwise; the outputs are the
/// same either way.
///
/// # Errors
///
/// [`EngineError::TaskPanicked`] or [`EngineError::FaultInjected`] from
/// the dispatch ([`Executor::try_scope`]).
pub(crate) fn expand<O: Default + Send>(
    len: usize,
    executor: &Executor<'_>,
    phase: Phase,
    expand: impl Fn(Range<usize>, &mut O) + Sync,
) -> Result<Vec<O>, EngineError> {
    let threads = executor.threads();
    let ranges: Vec<Range<usize>> = chunks(len, threads).collect();
    let mut outs: Vec<O> = ranges.iter().map(|_| O::default()).collect();
    if len < PAR_THRESHOLD || threads <= 1 {
        for (out, range) in outs.iter_mut().zip(ranges) {
            expand(range, out);
        }
    } else {
        let expand = &expand;
        executor.try_scope(|scope| {
            for (out, range) in outs.iter_mut().zip(ranges) {
                scope.spawn(move || {
                    let _frame = tm_obs::phase_frame(phase);
                    expand(range, out);
                });
            }
        })?;
    }
    Ok(outs)
}

/// The merge step: takes the chunks' candidate buffers out of their
/// [`Buckets`] (the push orders stay, for [`in_tag_order`]), regroups
/// them by stripe and runs `merge(table, buffers)` once per stripe
/// ([`per_stripe`]), where `buffers` are the stripe's buffers of every
/// chunk, in chunk order — so candidates arrive in tag order, and the
/// k-th candidate a stripe sees is the one [`in_tag_order`] reports as
/// `(stripe, k)`. Returns the per-stripe results in stripe order.
///
/// # Errors
///
/// As for [`expand`].
pub(crate) fn merge<'b, T: Send, C: Send + 'b, R: Send>(
    tables: &mut [T],
    buckets: impl IntoIterator<Item = &'b mut Buckets<C>>,
    executor: &Executor<'_>,
    phase: Phase,
    merge: impl Fn(&mut T, Vec<Vec<C>>) -> R + Sync,
) -> Result<Vec<R>, EngineError> {
    let mut by_stripe: Vec<Vec<Vec<C>>> = (0..STRIPES).map(|_| Vec::new()).collect();
    for buckets in buckets {
        for (stripe, buffer) in buckets.stripes.iter_mut().enumerate() {
            by_stripe[stripe].push(std::mem::take(buffer));
        }
    }
    let candidates: usize = by_stripe
        .iter()
        .flat_map(|buffers| buffers.iter().map(Vec::len))
        .sum();
    per_stripe(tables, by_stripe, candidates, executor, phase, merge)
}

/// Runs `f(&mut tables[s], work[s])` for every stripe `s` and returns the
/// results in stripe order. Stripes are handed out in contiguous groups,
/// one task per worker, when `executor` is wider than one and `size` —
/// the level's total amount of work — reaches [`PAR_THRESHOLD`]; they
/// run inline otherwise.
///
/// # Errors
///
/// As for [`expand`].
pub(crate) fn per_stripe<T: Send, W: Send, R: Send>(
    tables: &mut [T],
    work: Vec<W>,
    size: usize,
    executor: &Executor<'_>,
    phase: Phase,
    f: impl Fn(&mut T, W) -> R + Sync,
) -> Result<Vec<R>, EngineError> {
    debug_assert_eq!(tables.len(), STRIPES);
    debug_assert_eq!(work.len(), STRIPES);
    let threads = executor.threads();
    if size < PAR_THRESHOLD || threads <= 1 {
        return Ok(tables
            .iter_mut()
            .zip(work)
            .map(|(table, work)| f(table, work))
            .collect());
    }
    let mut work: Vec<Option<W>> = work.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = (0..STRIPES).map(|_| None).collect();
    let per = STRIPES.div_ceil(threads);
    let f = &f;
    executor.try_scope(|scope| {
        for ((tables, work), results) in tables
            .chunks_mut(per)
            .zip(work.chunks_mut(per))
            .zip(results.chunks_mut(per))
        {
            scope.spawn(move || {
                let _frame = tm_obs::phase_frame(phase);
                for ((table, work), result) in tables.iter_mut().zip(work).zip(results) {
                    *result = work.take().map(|work| f(table, work));
                }
            });
        }
    })?;
    Ok(results
        .into_iter()
        .map(|result| result.expect("every stripe ran"))
        .collect())
}

/// The number step: visits every candidate of the level in tag order —
/// chunks in order, each chunk in push order — as `visit(chunk, stripe,
/// k)`, where `k` counts the stripe's candidates across chunks in chunk
/// order (the order [`merge`] consumed them in). A candidate's tag
/// `(frontier index, edge index)` is thus implicit in where it sits;
/// engines that need it later store it in the candidate.
pub(crate) fn in_tag_order<'b, C: 'b>(
    buckets: impl IntoIterator<Item = &'b Buckets<C>>,
    mut visit: impl FnMut(usize, usize, usize),
) {
    let mut seen = [0usize; STRIPES];
    for (chunk, buckets) in buckets.into_iter().enumerate() {
        for &(stripe, _) in &buckets.order {
            let stripe = stripe as usize;
            visit(chunk, stripe, seen[stripe]);
            seen[stripe] += 1;
        }
    }
}

/// A `hash → id` index over values stored elsewhere (a state table, a
/// stripe's winner list). It is keyed by the values' precomputed
/// [`hash_of`], so nothing is hashed twice, and it holds `u32` ids, not
/// copies of the values. Distinct values with equal hashes are told
/// apart by the caller's `is` closure; ids past the first under one hash
/// live in a side table that stays empty in practice.
#[derive(Default)]
pub(crate) struct HashIndex {
    first: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    more: HashMap<u64, Vec<u32>, BuildHasherDefault<PassThrough>>,
}

impl HashIndex {
    /// The id of the value hashing to `hash` for which `is(id)` holds.
    #[inline]
    pub(crate) fn get(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        let &id = self.first.get(&hash)?;
        if is(id) {
            return Some(id);
        }
        self.more.get(&hash)?.iter().copied().find(|&id| is(id))
    }

    /// Records `id` under `hash`; the caller has checked with
    /// [`HashIndex::get`] that its value is not indexed yet.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.more.entry(hash).or_default().push(id),
        }
    }

    /// Empties the index, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.first.clear();
        self.more.clear();
    }

    /// Number of indexed ids.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.first.len() + self.more.values().map(Vec::len).sum::<usize>()
    }
}

/// The hasher of a [`HashIndex`]: its keys are already FxHashes. Rotated
/// so the bits [`stripe_of`] fixed within one stripe land in the middle,
/// away from both the bucket-index bits (low) and the control-byte bits
/// (high) of the table.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn chunks_cover_the_frontier_in_order() {
        for (len, threads) in [(0, 1), (1, 4), (10, 3), (1000, 2), (7, 8)] {
            let ranges: Vec<_> = chunks(len, threads).collect();
            assert!(ranges.len() <= chunk_count(threads));
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len {len}, threads {threads}"
            );
        }
    }

    #[test]
    fn hash_index_separates_colliding_values() {
        let values = ["a", "b", "c"];
        let mut index = HashIndex::default();
        // Force all three under one hash: only `is` tells them apart.
        for id in 0..3u32 {
            assert_eq!(
                index.get(42, |i| values[i as usize] == values[id as usize]),
                None
            );
            index.insert(42, id);
        }
        assert_eq!(index.len(), 3);
        for id in 0..3u32 {
            assert_eq!(
                index.get(42, |i| values[i as usize] == values[id as usize]),
                Some(id)
            );
        }
        assert_eq!(index.get(43, |_| true), None);
        index.clear();
        assert_eq!(index.len(), 0);
    }

    /// One full level (expand, merge first-wins, number) of distinct
    /// values over `items`, on `executor`: the winners in tag order.
    fn dedup_level(items: &[u64], executor: &Executor<'_>) -> Vec<u64> {
        let mut outs: Vec<Buckets<u64>> = expand(
            items.len(),
            executor,
            Phase::BfsLevel,
            |range, out: &mut Buckets<_>| {
                for i in range {
                    let value = items[i];
                    out.push(stripe_of(hash_of(&value)), value);
                }
            },
        )
        .unwrap();
        let mut seen: Vec<crate::FxHashSet<u64>> =
            (0..STRIPES).map(|_| Default::default()).collect();
        let merged = merge(
            &mut seen,
            &mut outs,
            executor,
            Phase::DedupMerge,
            |set, buffers| {
                buffers
                    .into_iter()
                    .flatten()
                    .map(|value| set.insert(value).then_some(value))
                    .collect::<Vec<_>>()
            },
        )
        .unwrap();
        let mut order = Vec::new();
        in_tag_order(&outs, |_, stripe, k| order.extend(merged[stripe][k]));
        order
    }

    #[test]
    fn a_level_numbers_first_occurrences_in_fifo_order_at_every_width() {
        let items: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1237).collect();
        let mut expected = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &value in &items {
            if seen.insert(value) {
                expected.push(value);
            }
        }
        assert_eq!(dedup_level(&items, &Executor::Sequential), expected);
        for size in [2, 3, 8] {
            let pool = WorkerPool::new(size);
            assert_eq!(
                dedup_level(&items, &Executor::Pool(&pool)),
                expected,
                "pool {size}"
            );
        }
    }
}
