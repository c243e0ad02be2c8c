//! Seeded lint fixture: an error variant no test provokes. Never compiled —
//! exists so `spg-lint --self-test` can prove the untested-variant pass
//! still catches an error variant that no test constructs or matches.

#[derive(Debug, PartialEq)]
pub enum FixtureError {
    /// Provoked by the test below.
    Empty,
    /// The seeded gap: raised, but no test names it.
    TooLong { len: usize },
}

pub fn check(input: &str) -> Result<(), FixtureError> {
    match input.len() {
        0 => Err(FixtureError::Empty),
        len if len > 8 => Err(FixtureError::TooLong { len }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_rejected() {
        assert_eq!(check(""), Err(FixtureError::Empty));
    }
}
