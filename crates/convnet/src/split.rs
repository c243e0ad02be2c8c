//! The one rule by which a call splits its work over its
//! [core budget](crate::ConvScratch::cores).
//!
//! A site cuts the buffer it writes into contiguous parts of whole items
//! by the workspace's one partition rule ([`spg_sync::partition`]), one
//! thread each: as many parts as the budget allows, but none carrying
//! less than the site's floor of work, so a fork (its cost is measured in
//! `spg_sync`'s `fork_join` module) is paid only where a part's work is
//! several times that. A site computes each item the same way whichever
//! part holds it, so the bits never depend on the split. At one part
//! nothing forks and nothing allocates.

/// How many parts `work` units are cut into on `cores` cores: at most
/// `cores`, no part under `floor` units, at least one.
fn parts(cores: usize, work: usize, floor: usize) -> usize {
    cores.min(work / floor).max(1)
}

/// What [`for_each_part`] cuts: a buffer, or several buffers cut alike.
pub(crate) trait Cut: Send + Default {
    /// Elements in the buffer.
    fn len(&self) -> usize;

    /// Cuts one part, the first `len` elements, off the front:
    /// `(part, rest)`. [`for_each_part`] cuts its parts off in order, one
    /// call each.
    fn cut_front(self, len: usize) -> (Self, Self);
}

impl<T: Send> Cut for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn cut_front(self, len: usize) -> (Self, Self) {
        self.split_at_mut(len)
    }
}

/// Runs `f(first, chunk)` over `out` cut into [`parts`]`(cores, work,
/// floor)` contiguous chunks of whole `unit`-long items (no more parts
/// than items), one thread each; `first` is the index of the chunk's first
/// item.
pub(crate) fn for_each_part<C: Cut>(
    out: C,
    unit: usize,
    work: usize,
    cores: usize,
    floor: usize,
    f: impl Fn(usize, C) + Sync,
) {
    let items = out.len() / unit;
    let parts = parts(cores, work, floor).min(items);
    if parts <= 1 {
        return f(0, out);
    }
    let (f, mut rest) = (&f, out);
    spg_sync::fork_join((0..parts).map(|p| {
        let part = spg_sync::partition(items, parts, p);
        let chunk;
        (chunk, rest) = std::mem::take(&mut rest).cut_front(part.len() * unit);
        move || f(part.start, chunk)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_follow_the_budget_and_the_floor() {
        assert_eq!(parts(1, 1 << 30, 1), 1);
        assert_eq!(parts(4, 10, 3), 3);
        assert_eq!(parts(4, 2, 3), 1, "below the floor nothing forks");
        assert_eq!(parts(7, 100, 1), 7);
    }

    #[test]
    fn every_item_is_visited_once_with_its_index() {
        for cores in [1, 2, 3, 7] {
            let mut out = vec![usize::MAX; 5 * 3];
            for_each_part(&mut out[..], 3, 15, cores, 1, |first, chunk| {
                for (i, item) in (first..).zip(chunk.chunks_exact_mut(3)) {
                    item.fill(i);
                }
            });
            let want: Vec<usize> = (0..5).flat_map(|i| [i; 3]).collect();
            assert_eq!(out, want, "cores {cores}");
        }
    }
}
