//! Seeded lint fixture: public functions no production binary links.
//! Never compiled — `spg-lint --self-test` reads it with the canned
//! symbol table `test_only.nm` (what `nm -C --defined-only` prints for a
//! binary that calls `Counter::hit`, `Counter::len`, `Gauge::reset` and
//! `Queue::pop`) to prove the test-only pass still catches a public
//! function production does not reach, and still honors a reasoned seam
//! marker.

pub struct Counter {
    hits: u64,
}

impl Counter {
    /// Production calls this: the symbol table defines it.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// The seeded leftover: only the test below calls it. `Gauge::reset`,
    /// a method of the same name on another type, is linked.
    pub fn reset(&mut self) {
        self.hits = 0;
    }

    /// A dead getter named after its field: `self.hits` reads the field,
    /// so nothing calls it.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Linked.
    pub fn len(&self) -> usize {
        self.hits as usize
    }

    /// Not linked, but reached as `len`'s pair, which clippy requires.
    pub fn is_empty(&self) -> bool {
        self.hits == 0
    }

    /// A declared seam: excused, and printed with its reason.
    // lint: allow(test-only) the fixture's seam
    pub fn count(&self) -> u64 {
        self.hits
    }
}

pub struct Gauge;

impl Gauge {
    /// Linked.
    pub fn reset(&mut self) {}
}

pub struct Queue<T> {
    items: Vec<T>,
}

impl<T> Queue<T> {
    /// Linked through a generic impl: the symbol is `Queue<T>::pop`.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop()
    }

    /// The seeded dead method of the generic impl.
    pub fn peek(&self) -> Option<&T> {
        self.items.last()
    }
}

fn tally(counter: &mut Counter, gauge: &mut Gauge, queue: &mut Queue<u8>) {
    counter.hit();
    gauge.reset();
    let _ = (counter.len(), queue.pop());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears() {
        let mut c = Counter { hits: 3 };
        c.reset();
        assert_eq!(c.count(), 0);
        assert!(c.is_empty());
    }
}
