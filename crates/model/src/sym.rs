//! Exact symbolic arithmetic for closed-form cost certificates.
//!
//! The analyzer's conformance pass (PR 3) judges *numbers*: an extracted
//! `(a, b)` at one concrete `(n, p)` against a Table 2 row evaluated at
//! the same point. This module supplies the algebra needed to judge
//! *formulas*: polynomials over the monomial basis
//!
//! ```text
//!     c · v^a · x^e · d^k        with  x = 2^(d/12),  c ∈ ℚ,  a,e,k ∈ ℤ
//! ```
//!
//! where `v` is the size variable (`n` for algorithms, `m` for
//! collectives) and `d = log₂ p`. The twelfth-root basis makes every
//! power of `p` that appears in Tables 1/2 an *integer* power of `x`:
//! `√p = x⁶`, `∛p = x⁴`, `p^(2/3) = x⁸`, `p = x¹²`, `p^(1/4) = x³`.
//! Negative `k` covers the `1/log p` factors of the multi-port rows.
//!
//! Monomials in this basis are linearly independent as functions of
//! `(v, d)` over any open region, so *formal* equality of two
//! polynomials is equivalent to equality of the cost functions they
//! denote — which is what lets [`crate::sym::overhead_sym`] certificates
//! cover all `p = 2^d` at once instead of a sampled grid.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use cubemm_simnet::PortModel;

use crate::costs::ModelAlgo;

/// An exact rational number. Coefficients in Tables 1/2 are tiny
/// (`5/3`, `1/6`, …); `i128` backing makes overflow a non-issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rat {
    num: i128,
    den: i128, // always > 0, gcd(num, den) = 1
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rat {
    /// `num / den`, normalized. Panics on a zero denominator.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `i` as a rational.
    pub fn int(i: i128) -> Self {
        Rat { num: i, den: 1 }
    }

    /// Exact zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// Exact one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Is this exactly zero?
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Is this strictly negative?
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// `self^k` for integer `k` (negative `k` inverts; panics on 0^-k).
    pub fn pow(self, k: i32) -> Rat {
        let mut out = Rat::ONE;
        let base = if k < 0 {
            assert!(self.num != 0, "inverting zero");
            Rat::new(self.den, self.num)
        } else {
            self
        };
        for _ in 0..k.unsigned_abs() {
            out = out * base;
        }
        out
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl std::ops::Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }
}

impl std::ops::Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.num * o.num, self.den * o.den)
    }
}

impl std::ops::Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

/// Monomial key: exponents of `(v, x, d)` with `x = 2^(d/12)`.
type Key = (i32, i32, i32);

/// An exact polynomial over the `v^a · 2^(e·d/12) · d^k` basis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    terms: BTreeMap<Key, Rat>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// A single monomial `c · v^v_exp · x^x_exp · d^d_exp`.
    pub fn term(c: Rat, v_exp: i32, x_exp: i32, d_exp: i32) -> Poly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert((v_exp, x_exp, d_exp), c);
        }
        Poly { terms }
    }

    /// The constant polynomial `i`.
    pub fn int(i: i128) -> Poly {
        Poly::term(Rat::int(i), 0, 0, 0)
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Rat) -> Poly {
        Poly::term(c, 0, 0, 0)
    }

    /// The variable `d` (= `log₂ p`, or the subcube dimension `δ`).
    pub fn d() -> Poly {
        Poly::term(Rat::ONE, 0, 0, 1)
    }

    /// The variable `v` (`n` for algorithms, `m` for collectives).
    pub fn v(exp: i32) -> Poly {
        Poly::term(Rat::ONE, exp, 0, 0)
    }

    /// `p^(num/den)` as a power of the twelfth-root basis variable.
    /// Panics unless `12·num/den` is an integer.
    pub fn p_pow(num: i32, den: i32) -> Poly {
        assert!(
            den != 0 && (12 * num) % den == 0,
            "p^({num}/{den}) not in basis"
        );
        Poly::term(Rat::ONE, 0, 12 * num / den, 0)
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate the monomials as `((v_exp, x_exp, d_exp), coefficient)`.
    pub fn iter_terms(&self) -> impl Iterator<Item = (Key, Rat)> + '_ {
        self.terms.iter().map(|(&k, &c)| (k, c))
    }

    fn insert(&mut self, key: Key, c: Rat) {
        if c.is_zero() {
            return;
        }
        let cur = self.terms.get(&key).copied().unwrap_or(Rat::ZERO);
        let sum = cur + c;
        if sum.is_zero() {
            self.terms.remove(&key);
        } else {
            self.terms.insert(key, sum);
        }
    }

    /// Exact sum.
    pub fn add(&self, o: &Poly) -> Poly {
        let mut out = self.clone();
        for (&k, &c) in &o.terms {
            out.insert(k, c);
        }
        out
    }

    /// Exact difference.
    pub fn sub(&self, o: &Poly) -> Poly {
        self.add(&o.neg())
    }

    /// Exact negation.
    pub fn neg(&self) -> Poly {
        Poly {
            terms: self.terms.iter().map(|(&k, &c)| (k, -c)).collect(),
        }
    }

    /// Exact product.
    pub fn mul(&self, o: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (&(v1, x1, d1), &c1) in &self.terms {
            for (&(v2, x2, d2), &c2) in &o.terms {
                out.insert((v1 + v2, x1 + x2, d1 + d2), c1 * c2);
            }
        }
        out
    }

    /// Exact scaling by a rational.
    pub fn scale(&self, c: Rat) -> Poly {
        let mut out = Poly::zero();
        for (&k, &t) in &self.terms {
            out.insert(k, t * c);
        }
        out
    }

    /// Numeric value at `(v, d)`. Each term is one product of its
    /// integer parts — the coefficient's numerator, `v^a`, `d^k` and
    /// `2^(e·d/12)`, which is an exact power of two whenever `12 | e·d`
    /// — divided once by the rest, so a term whose exact value is
    /// representable evaluates to it: at `p = 64`, `4/3 · n²·log p /
    /// p^(2/3)` is exactly 2048.
    pub fn eval(&self, v: f64, d: f64) -> f64 {
        self.terms
            .iter()
            .map(|(&(ve, xe, de), &c)| {
                let (mut num, mut den) = (c.num as f64 * pow2_twelfths(xe, d), c.den as f64);
                for (base, e) in [(v, ve), (d, de)] {
                    if e >= 0 {
                        num *= base.powi(e);
                    } else {
                        den *= base.powi(-e);
                    }
                }
                num / den
            })
            .sum()
    }

    /// Substitutes `δ → d/j`: reinterprets a polynomial written over a
    /// subcube dimension `δ` (with `x = 2^(δ/12)`) as one over the full
    /// cube dimension `d`. Fails if some `x` exponent is not divisible
    /// by `j` (the result would leave the basis).
    pub fn subst_delta(&self, j: u32) -> Result<Poly, String> {
        let j = j as i32;
        let mut out = Poly::zero();
        for (&(ve, xe, de), &c) in &self.terms {
            if xe % j != 0 {
                return Err(format!(
                    "x^{xe} not expressible after δ = d/{j} (needs p^({xe}/{}))",
                    12 * j
                ));
            }
            // δ^k = (d/j)^k = d^k · j^(−k)
            out.insert((ve, xe / j, de), c * Rat::int(j as i128).pow(-de));
        }
        Ok(out)
    }

    /// Substitutes the size variable `v → vp` where `vp` is itself a
    /// polynomial (e.g. `m → n²/p`). Every term must be at most linear
    /// in `v` — collective costs always are.
    pub fn subst_v(&self, vp: &Poly) -> Result<Poly, String> {
        let mut out = Poly::zero();
        for (&(ve, xe, de), &c) in &self.terms {
            match ve {
                0 => out.insert((0, xe, de), c),
                1 => {
                    let rest = Poly::term(c, 0, xe, de);
                    out = out.add(&rest.mul(vp));
                }
                _ => return Err(format!("v^{ve} term is not linear in the size variable")),
            }
        }
        Ok(out)
    }

    /// Sufficient dominance check: is `self ≥ 0` for all `v ≥ 1`,
    /// `d ≥ 1` (hence `x ≥ 1`)? Every negative term must be covered by
    /// a distinct positive term whose exponents are all component-wise
    /// ≥ and whose coefficient is ≥ the negative term's magnitude —
    /// since each variable is ≥ 1, the larger monomial dominates
    /// pointwise. Conservative: `false` does not prove negativity.
    pub fn nonnegative_for_ge_one(&self) -> bool {
        let mut pos: Vec<(Key, Rat)> = self
            .terms
            .iter()
            .filter(|(_, c)| !c.is_negative())
            .map(|(&k, &c)| (k, c))
            .collect();
        for (&(nv, nx, nd), &c) in self.terms.iter().filter(|(_, c)| c.is_negative()) {
            let need = c.abs();
            let Some(idx) = pos.iter().position(|&((pv, px, pd), pc)| {
                pv >= nv && px >= nx && pd >= nd && !(pc + -need).is_negative()
            }) else {
                return false;
            };
            pos[idx].1 = pos[idx].1 + -need;
        }
        true
    }

    /// Renders with explicit variable names: `v_name` for the size
    /// variable, `log_name` for `d`, and `p_name` for the node count
    /// (whose powers the `x` exponents encode).
    pub fn render(&self, v_name: &str, p_name: &str, log_name: &str) -> String {
        if self.terms.is_empty() {
            return "0".into();
        }
        // Sort by descending (v, x, d) so leading terms come first.
        let mut keys: Vec<&Key> = self.terms.keys().collect();
        keys.sort_by(|a, b| b.cmp(a));
        let mut out = String::new();
        for (i, &&(ve, xe, de)) in keys.iter().enumerate() {
            let c = self.terms[&(ve, xe, de)];
            let mut num: Vec<String> = Vec::new();
            let mut den: Vec<String> = Vec::new();
            let coef = c.abs();
            let var_pow = |name: &str, e: i32| -> String {
                match e {
                    1 => name.to_string(),
                    2 => format!("{name}²"),
                    3 => format!("{name}³"),
                    _ => format!("{name}^{e}"),
                }
            };
            if ve != 0 {
                let side = if ve > 0 { &mut num } else { &mut den };
                side.push(var_pow(v_name, ve.abs()));
            }
            if xe != 0 {
                // x^e = p^(e/12); render common fractional powers.
                let (e, side) = (xe.abs(), if xe > 0 { &mut num } else { &mut den });
                let g = gcd(e as i128, 12) as i32;
                let (pn, pd) = (e / g, 12 / g);
                side.push(match (pn, pd) {
                    (k, 1) => var_pow(p_name, k),
                    (1, 2) => format!("√{p_name}"),
                    (1, 3) => format!("∛{p_name}"),
                    _ => format!("{p_name}^({pn}/{pd})"),
                });
            }
            if de != 0 {
                let side = if de > 0 { &mut num } else { &mut den };
                side.push(var_pow(log_name, de.abs()));
            }
            if i == 0 {
                if c.is_negative() {
                    out.push('−');
                }
            } else if c.is_negative() {
                out.push_str(" − ");
            } else {
                out.push_str(" + ");
            }
            let coef_str = coef.to_string();
            if num.is_empty() {
                out.push_str(&coef_str);
            } else {
                if coef != Rat::ONE {
                    out.push_str(&coef_str);
                    out.push('·');
                }
                out.push_str(&num.join("·"));
            }
            if !den.is_empty() {
                out.push('/');
                if den.len() > 1 {
                    out.push('(');
                }
                out.push_str(&den.join("·"));
                if den.len() > 1 {
                    out.push(')');
                }
            }
        }
        out
    }
}

/// `2^(e·d/12)` as an exact power of two times `2^(r/12)` for the
/// remainder `r ∈ [0, 12)` of `e·d`: exact when `12 | e·d`, and
/// otherwise one `exp2` of a small exponent, so no error in a large one
/// is magnified.
fn pow2_twelfths(e: i32, d: f64) -> f64 {
    let t = f64::from(e) * d;
    let whole = (t / 12.0).floor();
    2f64.powi(whole as i32) * ((t - 12.0 * whole) / 12.0).exp2()
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render("n", "p", "log p"))
    }
}

/// A closed-form `(a, b)` overhead: time is `t_s·a + t_w·b` for every
/// `p = 2^d` in the stated applicability region.
#[derive(Debug, Clone, PartialEq)]
pub struct SymOverhead {
    /// Start-up term coefficient, as a polynomial in `(n, p, log p)`.
    pub a: Poly,
    /// Transfer term coefficient.
    pub b: Poly,
    /// Side conditions under which the closed form is exact (beyond the
    /// structural applicability of Table 3).
    pub conditions: Vec<&'static str>,
}

/// The Table 2 row for `algo` under `port`, as exact polynomials: the
/// one statement of the table, which [`crate::costs::overhead`]
/// evaluates. `None` where the paper gives no row (one-port HJE).
///
/// For ALL3D multi-port the table is piecewise; this returns the
/// large-`n` row (`b` tail `1/(2∛p)`) and records the regime as a side
/// condition, matching the region the paper's comparison uses.
pub fn overhead_sym(algo: ModelAlgo, port: PortModel) -> Option<SymOverhead> {
    table2(algo, port, true).cloned()
}

/// Table 2, built once per process: the row of `algo` under `port`,
/// where `full` picks ALL3D multi-port's regime
/// ([`all3d_full_bandwidth`](crate::costs::all3d_full_bandwidth)) and
/// is ignored by every other row.
pub(crate) fn table2(algo: ModelAlgo, port: PortModel, full: bool) -> Option<&'static SymOverhead> {
    static TABLE: OnceLock<[[[Option<SymOverhead>; 2]; 2]; 7]> = OnceLock::new();
    let ports = [PortModel::OnePort, PortModel::MultiPort];
    let table = TABLE.get_or_init(|| {
        ModelAlgo::ALL.map(|a| ports.map(|p| [false, true].map(|f| table2_row(a, p, f))))
    });
    table[algo as usize][port as usize][usize::from(full)].as_ref()
}

/// Builds one Table 2 row.
fn table2_row(algo: ModelAlgo, port: PortModel, full: bool) -> Option<SymOverhead> {
    use ModelAlgo as A;
    use PortModel as P;
    let d = Poly::d;
    // n² · p^(num/den) shorthands.
    let n2p = |num: i32, den: i32| Poly::v(2).mul(&Poly::p_pow(num, den));
    let r = |num: i128, den: i128| Rat::new(num, den);
    let divisibility: &'static str = "exact when the block/slice arithmetic divides evenly \
         (Table 1 granularity; PR 3's grid spot-check covers the remainder)";
    let (a, b, mut conditions): (Poly, Poly, Vec<&'static str>) = match (algo, port) {
        (A::Simple, P::OnePort) => (
            // a = log p, b = 2n²/√p (1 − 1/√p)
            d(),
            n2p(-1, 2).scale(r(2, 1)).sub(&n2p(-1, 1).scale(r(2, 1))),
            vec!["p ≤ n²"],
        ),
        (A::Simple, P::MultiPort) => (
            // a = log p / 2, b = 2n²/(√p log p) (1 − 1/√p)
            d().scale(r(1, 2)),
            n2p(-1, 2)
                .scale(r(2, 1))
                .sub(&n2p(-1, 1).scale(r(2, 1)))
                .mul(&Poly::term(Rat::ONE, 0, 0, -1)),
            vec!["p ≤ n²"],
        ),
        (A::Cannon, P::OnePort) => (
            // a = 2(√p − 1) + log p
            Poly::p_pow(1, 2)
                .scale(r(2, 1))
                .sub(&Poly::int(2))
                .add(&d()),
            // b = 2n²/√p − 2n²/p + n² log p / p
            n2p(-1, 2)
                .scale(r(2, 1))
                .sub(&n2p(-1, 1).scale(r(2, 1)))
                .add(&n2p(-1, 1).mul(&d())),
            vec!["p ≤ n²"],
        ),
        (A::Cannon, P::MultiPort) => (
            // a = (√p − 1) + log p / 2
            Poly::p_pow(1, 2)
                .sub(&Poly::int(1))
                .add(&d().scale(r(1, 2))),
            // b = n²/√p − n²/p + n² log p / (2p)
            n2p(-1, 2)
                .sub(&n2p(-1, 1))
                .add(&n2p(-1, 1).mul(&d()).scale(r(1, 2))),
            vec!["p ≤ n²"],
        ),
        (A::Hje, P::OnePort) => return None,
        (A::Hje, P::MultiPort) => (
            // a = (√p − 1) + log p / 2
            Poly::p_pow(1, 2)
                .sub(&Poly::int(1))
                .add(&d().scale(r(1, 2))),
            // b = 2n²/(√p log p) − 2n²/(p log p) + n² log p / (2p)
            n2p(-1, 2)
                .scale(r(2, 1))
                .sub(&n2p(-1, 1).scale(r(2, 1)))
                .mul(&Poly::term(Rat::ONE, 0, 0, -1))
                .add(&n2p(-1, 1).mul(&d()).scale(r(1, 2))),
            vec!["p ≤ n², n/√p ≥ max(log √p, 1)"],
        ),
        (A::Berntsen, P::OnePort) => (
            // a = 2(∛p − 1) + log p
            Poly::p_pow(1, 3)
                .scale(r(2, 1))
                .sub(&Poly::int(2))
                .add(&d()),
            // b = 3n²/p^(2/3) − 3n²/p + 2 n² log p / (3p)
            n2p(-2, 3)
                .scale(r(3, 1))
                .sub(&n2p(-1, 1).scale(r(3, 1)))
                .add(&n2p(-1, 1).mul(&d()).scale(r(2, 3))),
            vec!["p ≤ n^(3/2)"],
        ),
        (A::Berntsen, P::MultiPort) => (
            // a = (∛p − 1) + 2 log p / 3
            Poly::p_pow(1, 3)
                .sub(&Poly::int(1))
                .add(&d().scale(r(2, 3))),
            // b = (1 + 3/log p)(n²/p^(2/3) − n²/p) + n² log p / (3p)
            n2p(-2, 3)
                .sub(&n2p(-1, 1))
                .mul(&Poly::int(1).add(&Poly::term(r(3, 1), 0, 0, -1)))
                .add(&n2p(-1, 1).mul(&d()).scale(r(1, 3))),
            vec!["p ≤ n^(3/2)"],
        ),
        (A::Dns, P::OnePort) => (
            d().scale(r(5, 3)),
            n2p(-2, 3).mul(&d()).scale(r(5, 3)),
            vec!["p ≤ n³"],
        ),
        (A::Dns, P::MultiPort) => (
            d().scale(r(4, 3)),
            n2p(-2, 3).scale(r(4, 1)),
            vec!["p ≤ n³"],
        ),
        (A::Diag3d, P::OnePort) => (
            d().scale(r(4, 3)),
            n2p(-2, 3).mul(&d()).scale(r(4, 3)),
            vec!["p ≤ n³"],
        ),
        (A::Diag3d, P::MultiPort) => (d(), n2p(-2, 3).scale(r(3, 1)), vec!["p ≤ n³"]),
        (A::All3d, P::OnePort) => (
            d().scale(r(4, 3)),
            // b = 3n²/p^(2/3) − 3n²/p + n² log p / (6p)
            n2p(-2, 3)
                .scale(r(3, 1))
                .sub(&n2p(-1, 1).scale(r(3, 1)))
                .add(&n2p(-1, 1).mul(&d()).scale(r(1, 6))),
            vec!["p ≤ n^(3/2)"],
        ),
        (A::All3d, P::MultiPort) => {
            // b = 6/log p (n²/p^(2/3) − n²/p) + tail: n²/(2p) when the
            // first-phase AAPC runs at full bandwidth, n² log p/(6p)
            // otherwise.
            let (tail, regime) = if full {
                (
                    n2p(-1, 1).scale(r(1, 2)),
                    "n² ≥ p·∛p·max(log p / 3, 1) (large-n row)",
                )
            } else {
                (
                    n2p(-1, 1).mul(&d()).scale(r(1, 6)),
                    "n² < p·∛p·max(log p / 3, 1) (small-n row)",
                )
            };
            let b = n2p(-2, 3)
                .sub(&n2p(-1, 1))
                .scale(r(6, 1))
                .mul(&Poly::term(Rat::ONE, 0, 0, -1))
                .add(&tail);
            (d(), b, vec!["p ≤ n^(3/2)", regime])
        }
    };
    conditions.push(divisibility);
    Some(SymOverhead { a, b, conditions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn rat_arithmetic_is_exact() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
        assert_eq!(Rat::new(1, 3) + Rat::new(1, 6), Rat::new(1, 2));
        assert_eq!(Rat::new(2, 3).pow(-2), Rat::new(9, 4));
        assert!(Rat::new(0, 5).is_zero());
    }

    #[test]
    fn poly_identities() {
        let d = Poly::d();
        let sqrt_p = Poly::p_pow(1, 2);
        // (√p − 1)(√p + 1) = p − 1
        let prod = sqrt_p.sub(&Poly::int(1)).mul(&sqrt_p.add(&Poly::int(1)));
        assert_eq!(prod, Poly::p_pow(1, 1).sub(&Poly::int(1)));
        // d − d = 0
        assert!(d.sub(&d).is_zero());
    }

    #[test]
    fn eval_matches_hand_values() {
        // n²/√p at n = 8, p = 16 (d = 4): 64/4 = 16.
        let q = Poly::v(2).mul(&Poly::p_pow(-1, 2));
        assert!(close(q.eval(8.0, 4.0), 16.0));
        // log p itself.
        assert!(close(Poly::d().eval(1.0, 6.0), 6.0));
    }

    #[test]
    fn integer_powers_of_p_evaluate_exactly() {
        // x^e with 12 | e·d is the power of two 2^(e·d/12) itself, with
        // no rounding from a twelfth root raised back up.
        for d in 0..=30i32 {
            for e in -24..=24i32 {
                if (e * d) % 12 != 0 {
                    continue;
                }
                let want = 2f64.powi(e * d / 12);
                let got = Poly::term(Rat::ONE, 0, e, 0).eval(1.0, f64::from(d));
                assert_eq!(got, want, "x^{e} at d = {d}");
            }
        }
    }

    #[test]
    fn subst_delta_rescales() {
        // 2^δ · δ with δ = d/2 → √p · d/2.
        let p = Poly::term(Rat::ONE, 0, 12, 1); // 2^δ · δ
        let got = p.subst_delta(2).unwrap();
        assert_eq!(got, Poly::p_pow(1, 2).mul(&Poly::d()).scale(Rat::new(1, 2)));
        // 2^(δ/12) with δ = d/7 leaves the basis.
        assert!(Poly::term(Rat::ONE, 0, 1, 0).subst_delta(7).is_err());
    }

    #[test]
    fn subst_v_replaces_linear_terms() {
        // m·δ with m → n²/p: n²·δ/p.
        let p = Poly::v(1).mul(&Poly::d());
        let m = Poly::v(2).mul(&Poly::p_pow(-1, 1));
        assert_eq!(
            p.subst_v(&m).unwrap(),
            Poly::v(2).mul(&Poly::p_pow(-1, 1)).mul(&Poly::d())
        );
        assert!(Poly::v(2).subst_v(&m).is_err());
    }

    #[test]
    fn dominance_check_accepts_and_rejects() {
        // √p − 1 ≥ 0 for p ≥ 2.
        assert!(Poly::p_pow(1, 2)
            .sub(&Poly::int(1))
            .nonnegative_for_ge_one());
        // 1 − √p is not.
        assert!(!Poly::int(1)
            .sub(&Poly::p_pow(1, 2))
            .nonnegative_for_ge_one());
        // n²·d − n² ≥ 0 (d ≥ 1 dominates).
        let q = Poly::v(2).mul(&Poly::d()).sub(&Poly::v(2));
        assert!(q.nonnegative_for_ge_one());
    }

    #[test]
    fn render_is_readable() {
        let some = overhead_sym(ModelAlgo::Cannon, PortModel::OnePort).unwrap();
        let a = some.a.to_string();
        assert!(a.contains("√p"), "got {a}");
        let b = some.b.to_string();
        assert!(b.contains("n²"), "got {b}");
    }
}
