//! Seeded lint fixture: a public function only its own tests call. Never
//! compiled — exists so `spg-lint --self-test` can prove the test-only
//! pass still catches a public item nothing in production reaches, and
//! still honors a reasoned seam marker.

pub struct Counter {
    hits: u64,
}

impl Counter {
    /// Production calls this.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// The seeded leftover: only the test below calls it.
    pub fn reset(&mut self) {
        self.hits = 0;
    }

    /// A dead getter named after its field: `self.hits` reads the field,
    /// so nothing calls it.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// A declared seam: excused, and printed with its reason.
    // lint: allow(test-only) the fixture's seam
    pub fn count(&self) -> u64 {
        self.hits
    }
}

fn tally(counter: &mut Counter) {
    counter.hit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears() {
        let mut c = Counter { hits: 3 };
        c.reset();
        assert_eq!(c.count(), 0);
    }
}
