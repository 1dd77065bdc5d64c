//! Dense rational matrices: exact Gauss–Jordan inversion and fraction-free
//! integer null spaces.

use std::fmt;

use crate::rational::{Rational, RationalError};
use crate::sympoly::SymPoly;

/// A dense matrix of [`Rational`] entries.
///
/// Used for the paper's closed-form coefficient fitting: invert the basis
/// matrix `a[i][j] = basis_j(i)` exactly and multiply by the first computed
/// values of the recurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Rational>) -> Matrix {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Creates a zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![Rational::ZERO; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            *m.get_mut(i, i) = Rational::ONE;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> Rational {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable access to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut Rational {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Exact inverse via Gauss–Jordan elimination.
    ///
    /// Returns `None` when the matrix is singular.
    ///
    /// # Errors
    ///
    /// Propagates [`RationalError::Overflow`] from intermediate arithmetic.
    pub fn inverse(&self) -> Result<Option<Matrix>, RationalError> {
        if self.rows != self.cols {
            return Ok(None);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a nonzero pivot at or below `col`.
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero());
            let pivot = match pivot {
                Some(p) => p,
                None => return Ok(None),
            };
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let pivot_val = a.get(col, col);
            let pivot_inv = Rational::ONE.checked_div(&pivot_val)?;
            a.scale_row(col, &pivot_inv)?;
            inv.scale_row(col, &pivot_inv)?;
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor.is_zero() {
                    continue;
                }
                a.sub_scaled_row(r, col, &factor)?;
                inv.sub_scaled_row(r, col, &factor)?;
            }
        }
        Ok(Some(inv))
    }

    /// Exact null-space basis via reduced row echelon form.
    ///
    /// Returns one basis vector (length `cols`) per free column of the
    /// RREF, in ascending free-column order — a deterministic spanning set
    /// for `{ x : A·x = 0 }`. An empty result means the kernel is trivial.
    /// Each basis vector has the free variable set to 1 and pivot
    /// variables solved exactly.
    ///
    /// The elimination runs on integers, not rationals: each row's
    /// denominators are cleared into a primitive `i128` row (content
    /// divided out; all-zero rows dropped), and fraction-free
    /// Gauss–Jordan elimination reduces every other row against the pivot
    /// row as `row ← p·row − f·pivot_row` (both factors first divided by
    /// `gcd(p, f)`), then divides the row by its content. The result is
    /// the RREF up to a nonzero scale per row, so back-solving each free
    /// column divides by the row's pivot entry. Scaling, reordering and
    /// dropping zero rows all preserve the row space, and the RREF of a
    /// matrix depends only on its row space, so the free columns and the
    /// returned vectors are exactly those of rational Gauss–Jordan
    /// elimination.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] when clearing denominators or
    /// an elimination step overflows `i128`.
    pub fn null_space(&self) -> Result<Vec<Vec<Rational>>, RationalError> {
        let mut rows: Vec<Vec<i128>> = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            if let Some(ints) = primitive_integer_row(row)? {
                rows.push(ints);
            }
        }
        // `pivot_cols[r]` is the pivot column of row `r` in the RREF.
        let mut pivot_cols: Vec<usize> = Vec::new();
        for col in 0..self.cols {
            let rank = pivot_cols.len();
            if rank == rows.len() {
                break;
            }
            let Some(pivot) = (rank..rows.len()).find(|&r| rows[r][col] != 0) else {
                continue; // free column
            };
            rows.swap(pivot, rank);
            let pivot_row = std::mem::take(&mut rows[rank]);
            for row in &mut rows {
                if !row.is_empty() && row[col] != 0 {
                    eliminate(row, &pivot_row, col)?;
                }
            }
            rows[rank] = pivot_row;
            pivot_cols.push(col);
        }
        let mut is_pivot = vec![false; self.cols];
        for &c in &pivot_cols {
            is_pivot[c] = true;
        }
        let mut basis = Vec::new();
        for free in (0..self.cols).filter(|&c| !is_pivot[c]) {
            let mut v = vec![Rational::ZERO; self.cols];
            v[free] = Rational::ONE;
            for (row, &pc) in rows.iter().zip(&pivot_cols) {
                // Row r reads: p·x[pc] + Σ row[free]·x[free] = 0.
                v[pc] = Rational::new(row[free], row[pc])?.checked_neg()?;
            }
            basis.push(v);
        }
        Ok(basis)
    }

    /// Multiplies this matrix by a vector of rationals.
    ///
    /// # Errors
    ///
    /// Propagates [`RationalError::Overflow`].
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Rational]) -> Result<Vec<Rational>, RationalError> {
        assert_eq!(v.len(), self.cols, "vector length must equal matrix cols");
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut acc = Rational::ZERO;
            for (c, value) in v.iter().enumerate() {
                acc = acc.checked_add(&self.get(r, c).checked_mul(value)?)?;
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Multiplies this matrix by a vector of symbolic polynomials — the
    /// paper's "multiply the inverse by the computed (perhaps symbolic)
    /// first k values".
    ///
    /// # Errors
    ///
    /// Propagates [`RationalError::Overflow`].
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.cols()`.
    pub fn mul_sym_vec(&self, v: &[SymPoly]) -> Result<Vec<SymPoly>, RationalError> {
        assert_eq!(v.len(), self.cols, "vector length must equal matrix cols");
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut acc = SymPoly::zero();
            for (c, value) in v.iter().enumerate() {
                acc = acc.checked_add(&value.checked_scale(&self.get(r, c))?)?;
            }
            out.push(acc);
        }
        Ok(out)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: &Rational) -> Result<(), RationalError> {
        for c in 0..self.cols {
            let cur = self.get(r, c);
            *self.get_mut(r, c) = cur.checked_mul(factor)?;
        }
        Ok(())
    }

    /// `row[r] -= factor * row[src]`
    fn sub_scaled_row(
        &mut self,
        r: usize,
        src: usize,
        factor: &Rational,
    ) -> Result<(), RationalError> {
        for c in 0..self.cols {
            let delta = self.get(src, c).checked_mul(factor)?;
            let cur = self.get(r, c);
            *self.get_mut(r, c) = cur.checked_sub(&delta)?;
        }
        Ok(())
    }
}

/// Clears the denominators of `row` and divides out the content, giving
/// the primitive integer row with the same span. `None` for a zero row.
///
/// Integer rows never hold `i128::MIN` (it is reported as overflow), so
/// every entry has an `i128` absolute value for [`gcd`].
fn primitive_integer_row(row: &[Rational]) -> Result<Option<Vec<i128>>, RationalError> {
    let mut lcm: i128 = 1;
    for den in row.iter().map(Rational::denominator).filter(|&d| d != 1) {
        lcm = (lcm / gcd(lcm, den))
            .checked_mul(den)
            .ok_or(RationalError::Overflow)?;
    }
    let mut ints = Vec::with_capacity(row.len());
    for value in row {
        let scale = if lcm == 1 {
            1
        } else {
            lcm / value.denominator()
        };
        let scaled = value
            .numerator()
            .checked_mul(scale)
            .filter(|&x| x != i128::MIN)
            .ok_or(RationalError::Overflow)?;
        ints.push(scaled);
    }
    Ok(divide_content(&mut ints).then_some(ints))
}

/// One fraction-free Gauss–Jordan step: clears `row[col]` against
/// `pivot_row` (whose entries left of `col` are zero) and keeps the row
/// primitive.
fn eliminate(row: &mut [i128], pivot_row: &[i128], col: usize) -> Result<(), RationalError> {
    let g = gcd(pivot_row[col], row[col]);
    let (p, f) = (pivot_row[col] / g, row[col] / g);
    for (x, &q) in row.iter_mut().zip(pivot_row) {
        *x = p
            .checked_mul(*x)
            .zip(f.checked_mul(q))
            .and_then(|(a, b)| a.checked_sub(b))
            .filter(|&x| x != i128::MIN)
            .ok_or(RationalError::Overflow)?;
    }
    divide_content(row);
    Ok(())
}

/// Divides `row` by the gcd of its entries. Returns `false` when the row
/// is all zeros (and leaves it unchanged).
fn divide_content(row: &mut [i128]) -> bool {
    let mut content = 0i128;
    for &x in row.iter() {
        content = gcd(content, x);
        if content == 1 {
            return true;
        }
    }
    if content == 0 {
        return false;
    }
    for x in row.iter_mut() {
        *x /= content;
    }
    true
}

/// Euclid's gcd of `|a|` and `|b|`, finished in `u64` once both fit: a
/// 128-bit remainder is a library call, a 64-bit one a single instruction.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            return i128::from(x);
        }
        (a, b) = (b, a % b);
    }
    a as i128
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> Rational {
        Rational::from_integer(v)
    }

    #[test]
    fn identity_inverse() {
        let id = Matrix::identity(4);
        assert_eq!(id.inverse().unwrap().unwrap(), id);
    }

    #[test]
    fn paper_l14_matrix_inverse() {
        // The paper's third-order Vandermonde for loop L14:
        // rows are [1, h, h^2, h^3] at h = 0..=3.
        let mut a = Matrix::zero(4, 4);
        for h in 0..4i128 {
            for k in 0..4u32 {
                *a.get_mut(h as usize, k as usize) = int(h.pow(k));
            }
        }
        let inv = a.inverse().unwrap().expect("vandermonde is nonsingular");
        // Multiplying inverse by the first four values of k from L14
        // (4, 9, 17, 29) yields coefficients [4, 23/6, 1, 1/6].
        let coeffs = inv.mul_vec(&[int(4), int(9), int(17), int(29)]).unwrap();
        assert_eq!(coeffs[0], int(4));
        assert_eq!(coeffs[1], Rational::new(23, 6).unwrap());
        assert_eq!(coeffs[2], int(1));
        assert_eq!(coeffs[3], Rational::new(1, 6).unwrap());
    }

    #[test]
    fn singular_detected() {
        let m = Matrix::from_rows(2, 2, vec![int(1), int(2), int(2), int(4)]);
        assert!(m.inverse().unwrap().is_none());
    }

    #[test]
    fn non_square_has_no_inverse() {
        let m = Matrix::zero(2, 3);
        assert!(m.inverse().unwrap().is_none());
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let m = Matrix::from_rows(
            3,
            3,
            vec![
                int(2),
                int(1),
                int(0),
                int(1),
                int(3),
                int(1),
                int(0),
                int(1),
                int(2),
            ],
        );
        let inv = m.inverse().unwrap().unwrap();
        // Check A^{-1} * A = I column by column.
        for c in 0..3 {
            let col: Vec<Rational> = (0..3).map(|r| m.get(r, c)).collect();
            let e = inv.mul_vec(&col).unwrap();
            for (r, val) in e.iter().enumerate() {
                let expected = if r == c {
                    Rational::ONE
                } else {
                    Rational::ZERO
                };
                assert_eq!(*val, expected);
            }
        }
    }

    #[test]
    fn pivot_requires_row_swap() {
        let m = Matrix::from_rows(2, 2, vec![int(0), int(1), int(1), int(0)]);
        let inv = m.inverse().unwrap().unwrap();
        assert_eq!(inv, m); // the swap matrix is its own inverse
    }

    #[test]
    fn null_space_of_invertible_is_trivial() {
        let m = Matrix::from_rows(2, 2, vec![int(1), int(2), int(3), int(4)]);
        assert!(m.null_space().unwrap().is_empty());
    }

    #[test]
    fn null_space_rank_one() {
        // x + 2y = 0 → kernel spanned by (-2, 1).
        let m = Matrix::from_rows(1, 2, vec![int(1), int(2)]);
        let ns = m.null_space().unwrap();
        assert_eq!(ns, vec![vec![int(-2), int(1)]]);
    }

    #[test]
    fn null_space_vectors_annihilate() {
        // Rank-2 3x4 system; kernel has dimension 2.
        let m = Matrix::from_rows(
            3,
            4,
            vec![
                int(1),
                int(2),
                int(0),
                int(1),
                int(0),
                int(0),
                int(1),
                int(3),
                int(1),
                int(2),
                int(1),
                int(4),
            ],
        );
        let ns = m.null_space().unwrap();
        assert_eq!(ns.len(), 2);
        for v in &ns {
            for r in m.mul_vec(v).unwrap() {
                assert!(r.is_zero());
            }
        }
    }

    #[test]
    fn null_space_zero_matrix_is_full() {
        let m = Matrix::zero(2, 3);
        let ns = m.null_space().unwrap();
        assert_eq!(ns.len(), 3);
        for (i, v) in ns.iter().enumerate() {
            assert_eq!(v[i], Rational::ONE);
        }
    }

    /// The rational Gauss–Jordan null space that [`Matrix::null_space`]
    /// replaced, kept as a differential oracle: every cell operation is
    /// an exact `Rational` one.
    fn rational_null_space(m: &Matrix) -> Result<Vec<Vec<Rational>>, RationalError> {
        let mut a = m.clone();
        let mut pivot_cols: Vec<usize> = Vec::new();
        let mut row = 0usize;
        for col in 0..a.cols {
            if row == a.rows {
                break;
            }
            let Some(pivot) = (row..a.rows).find(|&r| !a.get(r, col).is_zero()) else {
                continue;
            };
            a.swap_rows(pivot, row);
            let pivot_inv = Rational::ONE.checked_div(&a.get(row, col))?;
            a.scale_row(row, &pivot_inv)?;
            for r in 0..a.rows {
                let factor = a.get(r, col);
                if r != row && !factor.is_zero() {
                    a.sub_scaled_row(r, row, &factor)?;
                }
            }
            pivot_cols.push(col);
            row += 1;
        }
        let mut basis = Vec::new();
        for free in (0..a.cols).filter(|c| !pivot_cols.contains(c)) {
            let mut v = vec![Rational::ZERO; a.cols];
            v[free] = Rational::ONE;
            for (r, &pc) in pivot_cols.iter().enumerate() {
                v[pc] = a.get(r, free).checked_neg()?;
            }
            basis.push(v);
        }
        Ok(basis)
    }

    /// SplitMix64: a tiny deterministic PRNG for the property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i128, hi: i128) -> i128 {
            lo + (self.next() % (hi - lo + 1) as u64) as i128
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d).unwrap()
    }

    /// A `rows × cols` matrix of rank at most `rank`: random small
    /// combinations of `rank` random rational rows whose denominators are
    /// drawn from `1..=max_den`.
    fn low_rank(rng: &mut Rng, rows: usize, cols: usize, rank: usize, max_den: i128) -> Matrix {
        let generators: Vec<Vec<Rational>> = (0..rank)
            .map(|_| {
                (0..cols)
                    .map(|_| rat(rng.range(-4, 4), rng.range(1, max_den)))
                    .collect()
            })
            .collect();
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let weights: Vec<Rational> = (0..rank).map(|_| int(rng.range(-3, 3))).collect();
            for c in 0..cols {
                let mut acc = Rational::ZERO;
                for (w, g) in weights.iter().zip(&generators) {
                    acc += *w * g[c];
                }
                data.push(acc);
            }
        }
        Matrix::from_rows(rows, cols, data)
    }

    /// Rewrites some rows of `m` in place as zero rows, duplicates of an
    /// earlier row, or rational multiples of one — the row multiples a
    /// symbolic initial value produces in an evaluation matrix.
    fn perturb_rows(rng: &mut Rng, m: &mut Matrix) {
        for r in 1..m.rows {
            let src = rng.range(0, r as i128 - 1) as usize;
            let factor = match rng.next() % 8 {
                0 => Rational::ZERO,
                1 => Rational::ONE,
                2 => rat(rng.range(-9, 9), rng.range(1, 7)),
                _ => continue,
            };
            for c in 0..m.cols {
                *m.get_mut(r, c) = m.get(src, c) * factor;
            }
        }
    }

    /// The degree-≤2 evaluation matrix of `nvars` closed forms at
    /// `h = 0..rows`: each variable is a random rational quadratic in `h`,
    /// optionally plus a multiple of `2^h` or `3^h`; the columns are the
    /// monomials `1, v_i, v_i·v_j` (the invariant engine's basis).
    fn evaluation_matrix(rng: &mut Rng, nvars: usize, rows: usize) -> Matrix {
        let forms: Vec<([Rational; 3], i128, Rational)> = (0..nvars)
            .map(|_| {
                let poly = [(); 3].map(|_| rat(rng.range(-5, 5), rng.range(1, 4)));
                let base = rng.range(1, 3);
                let geo = if rng.chance(30) {
                    int(rng.range(-3, 3))
                } else {
                    Rational::ZERO
                };
                (poly, base, geo)
            })
            .collect();
        let mut monomials: Vec<Vec<usize>> = vec![vec![]];
        monomials.extend((0..nvars).map(|i| vec![i]));
        for i in 0..nvars {
            monomials.extend((i..nvars).map(|j| vec![i, j]));
        }
        let mut data = Vec::new();
        for h in 0..rows as i128 {
            let values: Vec<Rational> = forms
                .iter()
                .map(|(poly, base, geo)| {
                    poly[0]
                        + poly[1] * int(h)
                        + poly[2] * int(h * h)
                        + *geo * int(base.pow(h as u32))
                })
                .collect();
            for mono in &monomials {
                data.push(mono.iter().fold(Rational::ONE, |acc, &i| acc * values[i]));
            }
        }
        Matrix::from_rows(rows, monomials.len(), data)
    }

    /// Asserts that every vector of `basis` annihilates `m`.
    fn assert_annihilates(m: &Matrix, basis: &[Vec<Rational>]) {
        for v in basis {
            assert!(
                m.mul_vec(v).unwrap().iter().all(Rational::is_zero),
                "{v:?} is not in the kernel of\n{m}"
            );
        }
    }

    #[test]
    fn null_space_matches_rational_oracle() {
        let mut rng = Rng(0x5EED_1992);
        // (rows, cols): the engine's 8×6 and 17×15 shapes, plus square,
        // wide, and tall ones.
        let shapes = [(8, 6), (17, 15), (6, 6), (3, 10), (5, 12), (20, 4), (24, 7)];
        let mut compared = 0;
        let mut cases = 0;
        for round in 0..60 {
            for &(rows, cols) in &shapes {
                let rank = rng.range(0, rows.min(cols) as i128) as usize;
                let max_den = if round % 2 == 0 { 1 } else { 6 };
                let mut m = low_rank(&mut rng, rows, cols, rank, max_den);
                if round % 3 == 0 {
                    perturb_rows(&mut rng, &mut m);
                }
                let ours = m.null_space();
                if let Ok(basis) = &ours {
                    assert_annihilates(&m, basis);
                }
                cases += 1;
                if let (Ok(ours), Ok(oracle)) = (ours, rational_null_space(&m)) {
                    assert_eq!(ours, oracle, "null space differs for\n{m}");
                    compared += 1;
                }
            }
        }
        assert!(
            compared * 10 >= cases * 9,
            "only {compared}/{cases} comparable"
        );
    }

    #[test]
    fn evaluation_matrix_null_space_matches_rational_oracle() {
        let mut rng = Rng(0xB1C0_0002);
        let mut compared = 0;
        let mut cases = 0;
        for round in 0..80 {
            // Two closed forms give the 8×6 shape, four give 17×15.
            let (nvars, rows) = if round % 2 == 0 { (2, 8) } else { (4, 17) };
            let mut m = evaluation_matrix(&mut rng, nvars, rows);
            if round % 4 < 2 {
                perturb_rows(&mut rng, &mut m);
            }
            let ours = m.null_space();
            if let Ok(basis) = &ours {
                assert_annihilates(&m, basis);
            }
            cases += 1;
            if let (Ok(ours), Ok(oracle)) = (ours, rational_null_space(&m)) {
                assert_eq!(ours, oracle, "null space differs for\n{m}");
                compared += 1;
            }
        }
        assert!(
            compared * 10 >= cases * 9,
            "only {compared}/{cases} comparable"
        );
    }

    #[test]
    fn null_space_ignores_zero_and_duplicate_rows() {
        let base = Matrix::from_rows(2, 3, vec![int(1), int(2), int(3), int(0), int(1), int(4)]);
        let padded = Matrix::from_rows(
            5,
            3,
            vec![
                int(0),
                int(0),
                int(0),
                int(0),
                int(1),
                int(4),
                rat(1, 2),
                int(1),
                rat(3, 2),
                int(1),
                int(2),
                int(3),
                int(0),
                int(0),
                int(0),
            ],
        );
        let expected = base.null_space().unwrap();
        assert_eq!(expected, vec![vec![int(5), int(-4), int(1)]]);
        assert_eq!(padded.null_space().unwrap(), expected);
        assert_eq!(rational_null_space(&padded).unwrap(), expected);
    }

    #[test]
    fn null_space_overflow_inside_elimination_is_an_error() {
        // Both rows are primitive and fit comfortably, but clearing the
        // first column multiplies ~2^70 by ~2^70.
        let a = (1i128 << 70) + 1;
        let c = (1i128 << 70) - 1;
        let d = (1i128 << 70) + 3;
        let m = Matrix::from_rows(2, 3, vec![int(a), int(1), int(0), int(c), int(d), int(1)]);
        assert_eq!(m.null_space(), Err(RationalError::Overflow));
    }

    #[test]
    fn null_space_overflow_clearing_denominators_is_an_error() {
        let p = 1i128 << 100;
        let m = Matrix::from_rows(1, 2, vec![rat(1, p - 1), rat(1, p + 1)]);
        assert_eq!(m.null_space(), Err(RationalError::Overflow));
    }

    #[test]
    fn mul_sym_vec_scales() {
        use crate::sympoly::{SymId, SymPoly};
        let m = Matrix::from_rows(2, 2, vec![int(2), int(0), int(0), int(3)]);
        let x = SymPoly::symbol(SymId(0));
        let y = SymPoly::symbol(SymId(1));
        let out = m.mul_sym_vec(&[x.clone(), y.clone()]).unwrap();
        assert_eq!(out[0], x.checked_scale(&int(2)).unwrap());
        assert_eq!(out[1], y.checked_scale(&int(3)).unwrap());
    }
}
