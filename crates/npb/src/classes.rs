//! NPB problem classes: grid sizes and iteration counts.
//!
//! Grid sizes per benchmark follow the paper's Tables 1, 5 and 7
//! exactly; loop iteration counts follow the paper where stated (BT:
//! 60 for class S, 200 for W and A) and the NPB 2.x reference inputs
//! otherwise (SP: 400; LU: 300 for W, 250 for A and B).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An NPB problem class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Class {
    /// Sample (tiny) class.
    S,
    /// Workstation class.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
}

impl Class {
    /// All classes in ascending size order.
    pub const ALL: [Class; 4] = [Class::S, Class::W, Class::A, Class::B];

    /// Single-letter name.
    pub fn letter(self) -> char {
        match self {
            Class::S => 'S',
            Class::W => 'W',
            Class::A => 'A',
            Class::B => 'B',
        }
    }

    /// The class a user typed, matching [`Class::letter`] in either
    /// case (`w` or `W`).
    pub fn from_name(name: &str) -> Option<Class> {
        let &[byte] = name.as_bytes() else {
            return None;
        };
        let letter = char::from(byte.to_ascii_uppercase());
        Self::ALL.into_iter().find(|c| c.letter() == letter)
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// The problem a benchmark instance solves: cube edge and loop count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Problem {
    /// Grid points per dimension (the grids are cubes).
    pub size: usize,
    /// Main-loop iterations of the full application.
    pub iterations: u32,
}

impl Problem {
    /// Grid extents `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.size, self.size, self.size)
    }

    /// Total grid cells.
    pub fn cells(&self) -> usize {
        self.size * self.size * self.size
    }
}

/// BT data sets (paper Table 1).
pub fn bt_problem(class: Class) -> Problem {
    match class {
        Class::S => Problem {
            size: 12,
            iterations: 60,
        },
        Class::W => Problem {
            size: 32,
            iterations: 200,
        },
        Class::A => Problem {
            size: 64,
            iterations: 200,
        },
        Class::B => Problem {
            size: 102,
            iterations: 200,
        },
    }
}

/// SP data sets (paper Table 5; class S from the NPB reference).
pub fn sp_problem(class: Class) -> Problem {
    match class {
        Class::S => Problem {
            size: 12,
            iterations: 100,
        },
        Class::W => Problem {
            size: 36,
            iterations: 400,
        },
        Class::A => Problem {
            size: 64,
            iterations: 400,
        },
        Class::B => Problem {
            size: 102,
            iterations: 400,
        },
    }
}

/// LU data sets (paper Table 7; class S from the NPB reference).
pub fn lu_problem(class: Class) -> Problem {
    match class {
        Class::S => Problem {
            size: 12,
            iterations: 50,
        },
        Class::W => Problem {
            size: 33,
            iterations: 300,
        },
        Class::A => Problem {
            size: 64,
            iterations: 250,
        },
        Class::B => Problem {
            size: 102,
            iterations: 250,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_matches_paper_table_1() {
        assert_eq!(
            bt_problem(Class::S),
            Problem {
                size: 12,
                iterations: 60
            }
        );
        assert_eq!(
            bt_problem(Class::W),
            Problem {
                size: 32,
                iterations: 200
            }
        );
        assert_eq!(
            bt_problem(Class::A),
            Problem {
                size: 64,
                iterations: 200
            }
        );
    }

    #[test]
    fn sp_matches_paper_table_5() {
        assert_eq!(sp_problem(Class::W).size, 36);
        assert_eq!(sp_problem(Class::A).size, 64);
        assert_eq!(sp_problem(Class::B).size, 102);
    }

    #[test]
    fn lu_matches_paper_table_7() {
        assert_eq!(lu_problem(Class::W).size, 33);
        assert_eq!(lu_problem(Class::A).size, 64);
        assert_eq!(lu_problem(Class::B).size, 102);
    }

    #[test]
    fn problems_grow_with_class() {
        for f in [bt_problem, sp_problem, lu_problem] {
            let sizes: Vec<usize> = Class::ALL.iter().map(|&c| f(c).size).collect();
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        }
    }

    #[test]
    fn cells_and_dims() {
        let p = bt_problem(Class::S);
        assert_eq!(p.dims(), (12, 12, 12));
        assert_eq!(p.cells(), 1728);
    }

    #[test]
    fn class_letters() {
        assert_eq!(Class::S.to_string(), "S");
        assert_eq!(Class::B.letter(), 'B');
    }
}
