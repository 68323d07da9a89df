"""Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Zero-row
and zero-column matrices are legal everywhere and behave as zero maps.
Polynomials are lists of Python ints in [0, p), ascending by degree.
All routines are deterministic: elimination always picks the leftmost
pivot column and the first nonzero row, and kernel bases enumerate free
columns in ascending order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldSizeError, InputError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _trim(f: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is [0]."""
    while len(f) > 1 and not f[-1]:
        f.pop()
    return f or [0]


class PrimeField:
    """Arithmetic and elimination helpers for F_p, p an odd prime."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        if p == 2:
            raise InputError("p = 2 is not supported (root extraction needs odd p)")
        self.p = p
        self._inv_cache: dict[int, int] = {}
        # largest inner dimension k of a product whose sums of k terms below
        # (p - 1)**2 stay under 2**63 in int64
        self._max_inner = (2**63 - 1) // (p - 1) ** 2

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- scalars ------------------------------------------------------

    def inv_scalar(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        cached = self._inv_cache.get(a)
        if cached is None:
            cached = pow(a, self.p - 2, self.p)
            self._inv_cache[a] = cached
        return cached

    # -- matrix construction ------------------------------------------

    def mat(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) % self.p

    def zeros(self, r: int, c: int) -> np.ndarray:
        return np.zeros((r, c), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product mod p.  Raises FieldSizeError unless the inner
        dimension k keeps (p - 1)**2 * k below 2**63."""
        if a.shape[1] != b.shape[0]:
            raise InputError(f"shape mismatch in product: {a.shape} @ {b.shape}")
        if a.shape[1] > self._max_inner:
            raise FieldSizeError(
                f"p = {self.p} too large for exact int64 products of inner dimension {a.shape[1]}"
            )
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return (a @ b) % self.p

    # -- elimination ---------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row-echelon form.

        Returns (R, pivot_cols); rank is len(pivot_cols).  Deterministic:
        leftmost pivot column, first nonzero row, no row permutation
        beyond the swap into pivot position.
        """
        p = self.p
        r = np.asarray(m, dtype=np.int64) % p  # a new array, safe to modify
        nrows, ncols = r.shape
        pivots: list[int] = []
        row = 0
        for col in range(ncols):
            if row >= nrows:
                break
            nz = r[row:, col].nonzero()[0]
            if nz.size == 0:
                continue
            src = row + int(nz[0])
            if src != row:
                r[[row, src]] = r[[src, row]]
            piv = int(r[row, col])
            if piv != 1:
                r[row] = r[row] * self.inv_scalar(piv) % p
            colvals = r[:, col].copy()
            colvals[row] = 0
            mask = colvals.nonzero()[0]
            if mask.size:
                r[mask] = (r[mask] - colvals[mask, None] * r[row]) % p
            pivots.append(col)
            row += 1
        return r, pivots

    def rank(self, m: np.ndarray) -> int:
        """Rank of one matrix.  For many small matrices use ranks."""
        if m.shape[0] == 0 or m.shape[1] == 0:
            return 0
        return len(self.rref(m)[1])

    def ranks(self, stack: np.ndarray) -> np.ndarray:
        """Ranks of a stack of matrices of shape (B, R, C), as B int64s.

        Fraction-free elimination of the whole stack at once, one Python
        step per column: in each matrix the pivot is the first nonzero row
        at or below that matrix's current rank, and only the rows below it
        change, row * piv - row[col] * pivot_row mod p, so no inverse is
        taken.  Each product is at most (p - 1)**2, so FieldSizeError is
        raised when (p - 1)**2 > 2**63 - 1, the int64 bound of mul with
        inner dimension 1.  Empty axes give zeros.  For one matrix, rank is
        several times faster.
        """
        p = self.p
        if self._max_inner < 1:
            raise FieldSizeError(f"p = {p} too large for exact int64 products")
        nmats, nrows, ncols = stack.shape
        out = np.zeros(nmats, dtype=np.int64)
        if not (nmats and nrows and ncols):
            return out
        a = np.asarray(stack, dtype=np.int64) % p  # a new array, safe to modify
        rows = np.arange(nrows)
        for col in range(ncols):
            cand = (a[:, :, col] != 0) & (rows >= out[:, None])
            b = np.flatnonzero(cand.any(axis=1))
            if not b.size:
                continue
            src, dst = cand[b].argmax(axis=1), out[b]
            piv_rows = a[b, src, col:]
            a[b, src, col:] = a[b, dst, col:]
            a[b, dst, col:] = piv_rows
            block = a[b, :, col:]
            # rows at or above the pivot get factor 1 and subtrahend 0
            below = rows > dst[:, None]
            scale = np.where(below, piv_rows[:, :1], 1)
            sub = np.where(below, block[:, :, 0], 0)
            a[b, :, col:] = (block * scale[:, :, None] - sub[:, :, None] * piv_rows[:, None, :]) % p
            out[b] += 1
        return out

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the right null space of m.

        Basis vectors correspond to free columns in ascending order; the
        free coordinate of each vector is 1.
        """
        nrows, ncols = m.shape
        if ncols == 0:
            return self.zeros(0, 0)
        if nrows == 0:
            return self.eye(ncols)
        r, pivots = self.rref(m)
        pivset = set(pivots)
        free = np.array([c for c in range(ncols) if c not in pivset], dtype=np.intp)
        basis = self.zeros(ncols, free.size)
        if free.size:
            basis[free, np.arange(free.size)] = 1
            if pivots:
                basis[pivots] = -r[: len(pivots)].take(free, axis=1) % self.p
        return basis

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution X of a @ X = b, or None if inconsistent.

        When a has full column rank the solution is unique; that is the
        only way this is used (expressing vectors in a chosen basis).
        """
        nrows, ncols = a.shape
        b = np.asarray(b, dtype=np.int64)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if b.shape[0] != nrows:
            raise InputError(f"solve shape mismatch: {a.shape} vs {b.shape}")
        if ncols == 0:
            if b.size and np.any(b % self.p):
                return None
            return self.zeros(0, b.shape[1])
        aug = np.concatenate([a, b], axis=1) % self.p
        r, pivots = self.rref(aug)
        if any(pc >= ncols for pc in pivots):
            return None
        x = self.zeros(ncols, b.shape[1])
        for i, pc in enumerate(pivots):
            x[pc] = r[i, ncols:]
        return x

    def is_invertible(self, m: np.ndarray) -> bool:
        return m.shape[0] == m.shape[1] and self.rank(m) == m.shape[0]

    def quotient_map(self, w: np.ndarray, dim: int) -> tuple[np.ndarray, list[int]]:
        """(q, free): q is the matrix of the projection
        k^dim -> k^dim / span(columns of w).

        The quotient is coordinatized on the standard basis vectors whose
        index, listed in free, is not a pivot of rref(w^T); for those
        indices e_j the map sends e_j to the j-th quotient coordinate, so
        sections are plain coordinate inclusions.
        """
        if w.shape[1] == 0:
            return self.eye(dim), list(range(dim))
        r, pivots = self.rref(w.T)
        free = sorted(set(range(dim)).difference(pivots))
        q = self.eye(dim)
        if pivots:
            q = (q - self.mul(r[: len(pivots)].T, q[pivots, :])) % self.p
        return (q[free, :] if free else self.zeros(0, dim)), free

    # -- polynomials over F_p ------------------------------------------
    #
    # A polynomial is a Python list of ints in [0, p), ascending by degree,
    # with no trailing zero except for the zero polynomial [0].  Degrees are
    # at most a module's dimension, too small to repay numpy's per-call cost.

    def poly_trim(self, f) -> list[int]:
        """Normal form of any coefficient sequence: reduced, trimmed list."""
        return _trim([int(c) % self.p for c in f])

    def poly_mul(self, f: list[int], g: list[int]) -> list[int]:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        p = self.p
        return _trim([c % p for c in out])

    def poly_divmod(self, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
        p = self.p
        f, g = _trim(list(f)), _trim(list(g))
        if g == [0]:
            raise ZeroDivisionError("polynomial division by zero")
        dg = len(g) - 1
        inv_lead = self.inv_scalar(g[-1])
        if len(f) - 1 < dg:
            return [0], f
        q = [0] * (len(f) - dg)
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i] * inv_lead % p
            if c:
                q[i - dg] = c
                lo = i - dg
                for k, b in enumerate(g):
                    f[lo + k] = (f[lo + k] - c * b) % p
        return _trim(q), _trim(f)

    def poly_mod(self, f: list[int], g: list[int]) -> list[int]:
        return self.poly_divmod(f, g)[1]

    def poly_gcd(self, f: list[int], g: list[int]) -> list[int]:
        """Monic gcd; [0] when both are zero."""
        f, g = _trim(list(f)), _trim(list(g))
        while g != [0]:
            f, g = g, self.poly_mod(f, g)
        if f == [0]:
            return f
        inv = self.inv_scalar(f[-1])
        return [c * inv % self.p for c in f]

    def poly_deriv(self, f: list[int]) -> list[int]:
        return _trim([k * f[k] % self.p for k in range(1, len(f))])

    def poly_pow_mod(self, f: list[int], e: int, m: list[int]) -> list[int]:
        out = [1]
        base = self.poly_mod(f, m)
        while e:
            if e & 1:
                out = self.poly_mod(self.poly_mul(out, base), m)
            base = self.poly_mod(self.poly_mul(base, base), m)
            e >>= 1
        return out

    def _poly_sub(self, f: list[int], g: list[int]) -> list[int]:
        n = max(len(f), len(g))
        f = list(f) + [0] * (n - len(f))
        g = list(g) + [0] * (n - len(g))
        return _trim([(a - b) % self.p for a, b in zip(f, g)])

    def poly_eval_matrix(self, f: list[int], e: np.ndarray) -> np.ndarray:
        out = self.zeros(e.shape[0], e.shape[0])
        power = self.eye(e.shape[0])
        for c in f:
            if c:
                out = (out + c * power) % self.p
            power = self.mul(power, e)
        return out

    def minimal_polynomial(self, e: np.ndarray) -> list[int]:
        """Monic minimal polynomial of a square matrix, from one rref of the
        columns vec(e^0), ..., vec(e^n): the first k are independent and
        column k gives e^k = sum c_i e^i, so mu = t^k - sum c_i t^i."""
        powers = [self.eye(e.shape[0])]
        for _ in range(e.shape[0]):
            powers.append(self.mul(powers[-1], e))
        r, pivots = self.rref(np.stack([m.reshape(-1) for m in powers], axis=1))
        k = len(pivots)
        return [-int(c) % self.p for c in r[:k, k]] + [1]

    # -- factorization needed by Fitting splitting ---------------------

    def squarefree_part(self, f: list[int]) -> list[int]:
        d = self.poly_deriv(f)
        if d == [0]:
            # f = g(t^p); over F_p its distinct roots are those of g, and
            # our minimal polynomials have degree < p, so this cannot occur
            raise FieldSizeError("polynomial degree reached the field characteristic")
        g = self.poly_gcd(f, d)
        return self.poly_divmod(f, g)[0]

    def distinct_degree_split(self, f: list[int]) -> list[tuple[int, list[int]]]:
        """Split a squarefree monic f into (degree, product-of-that-degree) parts."""
        parts = []
        t = [0, 1]
        h = t
        d = 0
        rest = f
        while len(rest) - 1 >= 2 * (d + 1):
            d += 1
            h = self.poly_pow_mod(h, self.p, rest)
            g = self.poly_gcd(self._poly_sub(h, t), rest)
            if len(g) > 1:
                parts.append((d, g))
                rest = self.poly_divmod(rest, g)[0]
                h = self.poly_mod(h, rest)
        if len(rest) > 1:
            parts.append((len(rest) - 1, rest))
        return parts

    def roots_of_split_poly(self, f: list[int]) -> list[int]:
        """Roots of a squarefree product of linear factors.

        Splits by gcd with (t+a)^((p-1)/2) - 1 for a = 0, 1, 2, ...; the
        shift sequence is fixed, so the result is deterministic.
        """
        p = self.p
        out: list[int] = []
        stack = [self.poly_trim(f)]
        shift = 0
        guard = 0
        while stack:
            g = stack.pop()
            if len(g) == 1:
                continue
            if len(g) == 2:
                out.append(-g[0] * self.inv_scalar(g[1]) % p)
                continue
            while True:
                guard += 1
                if guard > 4 * p:
                    raise FieldSizeError("root extraction failed to split")
                base = [shift % p, 1]
                shift += 1
                h = self.poly_pow_mod(base, (p - 1) // 2, g)
                h = self._poly_sub(h, [1])
                cand = self.poly_gcd(h, g)
                if 1 < len(cand) < len(g):
                    stack.append(cand)
                    stack.append(self.poly_divmod(g, cand)[0])
                    break
        return sorted(out)

    def coprime_factors(self, e: np.ndarray) -> list[list[int]]:
        """Pairwise coprime factors of the minimal polynomial of e.

        First t - lam for each eigenvalue lam in F_p, ascending, then one
        factor per residual degree >= 2: the product of the irreducible
        factors of that degree, not separated further.  The generalized
        kernels of the factors split the space into e-invariant pieces.
        """
        factors: list[list[int]] = []
        sf = self.squarefree_part(self.minimal_polynomial(e))
        for d, part in self.distinct_degree_split(sf):
            if d == 1:
                factors.extend([-lam % self.p, 1] for lam in self.roots_of_split_poly(part))
            else:
                factors.append(part)
        return factors

    # -- radical of a matrix algebra ------------------------------------

    def trace_form_radical(self, basis: list[np.ndarray]) -> np.ndarray:
        """Coordinates (columns) of the radical of span(basis), a matrix algebra.

        Uses the trace bilinear form tr(ab) of the given faithful action.
        Valid when p exceeds every multiplicity in the action; guarded by
        p > matrix size.
        """
        if not basis:
            return self.zeros(0, 0)
        n = basis[0].shape[0]
        if self.p <= n:
            raise FieldSizeError(f"p = {self.p} too small for trace-form radical (dim {n})")
        # tr(b_i b_j) = vec(b_i) . vec(b_j^T): the Gram matrix is one product
        flat = np.stack([b.reshape(-1) for b in basis])
        flat_t = np.stack([b.T.reshape(-1) for b in basis])
        return self.kernel_basis(self.mul(flat, flat_t.T))
