"""Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Zero-row
and zero-column matrices are legal everywhere and behave as zero maps.
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


def kron_eye_right(a: np.ndarray, n: int) -> np.ndarray:
    """kron(a, I_n), with the copies of a placed by slicing."""
    r, c = a.shape
    out = np.zeros((r, n, c, n), dtype=np.int64)
    diag = np.arange(n)
    out[:, diag, :, diag] = a
    return out.reshape(r * n, c * n)


def kron_eye_left(n: int, b: np.ndarray) -> np.ndarray:
    """kron(I_n, b), with the copies of b placed by slicing."""
    r, c = b.shape
    out = np.zeros((n, r, n, c), dtype=np.int64)
    diag = np.arange(n)
    out[diag, :, diag, :] = b
    return out.reshape(n * r, n * c)


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

    def mulchain(self, *ms: np.ndarray) -> np.ndarray:
        out = ms[0]
        for m in ms[1:]:
            out = self.mul(out, m)
        return out

    # -- elimination ---------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row-echelon form.

        Returns (R, pivot_cols); rank is len(pivot_cols).  Deterministic:
        leftmost pivot column, first nonzero row, no row permutation
        beyond the swap into pivot position.
        """
        r = (np.asarray(m, dtype=np.int64) % self.p).copy()
        nrows, ncols = r.shape
        pivots: list[int] = []
        row = 0
        for col in range(ncols):
            if row >= nrows:
                break
            nz = np.nonzero(r[row:, col])[0]
            if nz.size == 0:
                continue
            src = row + int(nz[0])
            if src != row:
                r[[row, src]] = r[[src, row]]
            inv = self.inv_scalar(int(r[row, col]))
            r[row] = (r[row] * inv) % self.p
            colvals = r[:, col].copy()
            colvals[row] = 0
            mask = np.nonzero(colvals)[0]
            if mask.size:
                r[mask] = (r[mask] - np.outer(colvals[mask], r[row])) % self.p
            pivots.append(col)
            row += 1
        return r, pivots

    def rank(self, m: np.ndarray) -> int:
        if m.shape[0] == 0 or m.shape[1] == 0:
            return 0
        return len(self.rref(m)[1])

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
        free = sorted(set(range(ncols)).difference(pivots))
        basis = self.zeros(ncols, len(free))
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for i, pc in enumerate(pivots):
                basis[pc, k] = (-r[i, fc]) % self.p
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

    def inv(self, m: np.ndarray) -> np.ndarray:
        if m.shape[0] != m.shape[1]:
            raise InputError("inverse of a non-square matrix")
        x = self.solve(m, self.eye(m.shape[0]))
        if x is None:
            raise InputError("matrix is singular")
        return x

    def column_space_contains(self, basis: np.ndarray, v: np.ndarray) -> bool:
        return self.solve(basis, v) is not None

    def quotient_map(self, w: np.ndarray, dim: int) -> np.ndarray:
        """Matrix of the projection k^dim -> k^dim / span(columns of w).

        The quotient is coordinatized on the standard basis vectors whose
        index is not a pivot of rref(w^T); for those indices e_j the map
        sends e_j to the j-th quotient coordinate, so sections are plain
        coordinate inclusions.
        """
        if w.shape[1] == 0:
            return self.eye(dim)
        r, pivots = self.rref(w.T)
        free = sorted(set(range(dim)).difference(pivots))
        q = self.eye(dim)
        if pivots:
            q = (q - self.mul(r[: len(pivots)].T, q[pivots, :])) % self.p
        return q[free, :] if free else self.zeros(0, dim)

    # -- polynomials over F_p (ascending coefficient arrays) -----------

    def poly_trim(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=np.int64) % self.p
        nz = np.nonzero(f)[0]
        if nz.size == 0:
            return np.zeros(1, dtype=np.int64)
        return f[: int(nz[-1]) + 1]

    def poly_mul(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self.poly_trim(np.convolve(f, g) % self.p)

    def poly_divmod(self, f: np.ndarray, g: np.ndarray):
        f = self.poly_trim(f).copy()
        g = self.poly_trim(g)
        if g.size == 1 and g[0] == 0:
            raise ZeroDivisionError("polynomial division by zero")
        dg = g.size - 1
        inv_lead = self.inv_scalar(int(g[-1]))
        if f.size - 1 < dg:
            return np.zeros(1, dtype=np.int64), f
        q = np.zeros(f.size - dg, dtype=np.int64)
        for i in range(f.size - 1, dg - 1, -1):
            c = (int(f[i]) * inv_lead) % self.p
            if c:
                q[i - dg] = c
                f[i - dg : i + 1] = (f[i - dg : i + 1] - c * g) % self.p
        return self.poly_trim(q), self.poly_trim(f)

    def poly_mod(self, f, g):
        return self.poly_divmod(f, g)[1]

    def poly_gcd(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        f, g = self.poly_trim(f), self.poly_trim(g)
        while not (g.size == 1 and g[0] == 0):
            f, g = g, self.poly_mod(f, g)
        if f.size == 1 and f[0] == 0:
            return f
        return (f * self.inv_scalar(int(f[-1]))) % self.p

    def poly_deriv(self, f: np.ndarray) -> np.ndarray:
        if f.size <= 1:
            return np.zeros(1, dtype=np.int64)
        return self.poly_trim(f[1:] * np.arange(1, f.size, dtype=np.int64) % self.p)

    def poly_pow_mod(self, f: np.ndarray, e: int, m: np.ndarray) -> np.ndarray:
        out = np.ones(1, dtype=np.int64)
        base = self.poly_mod(f, m)
        while e:
            if e & 1:
                out = self.poly_mod(self.poly_mul(out, base), m)
            base = self.poly_mod(self.poly_mul(base, base), m)
            e >>= 1
        return out

    def poly_eval_matrix(self, f: np.ndarray, e: np.ndarray) -> np.ndarray:
        out = self.zeros(e.shape[0], e.shape[0])
        power = self.eye(e.shape[0])
        for c in f:
            if c:
                out = (out + int(c) * power) % self.p
            power = self.mul(power, e)
        return out

    def minimal_polynomial(self, e: np.ndarray) -> np.ndarray:
        """Monic minimal polynomial of a square matrix, via Krylov chains."""
        n = e.shape[0]
        if n == 0:
            return np.ones(1, dtype=np.int64)
        mu = np.ones(1, dtype=np.int64)
        annihilator = self.eye(n)
        for j in range(n):
            v = self.zeros(n, 1)
            v[j, 0] = 1
            # annihilate v by the current mu; the local factor below is then
            # minpoly(v)/gcd(minpoly(v), mu), so the product stays the lcm
            if annihilator is None:
                annihilator = self.poly_eval_matrix(mu, e)
            v = self.mul(annihilator, v)
            if not np.any(v):
                continue
            chain = [v]
            cur = v
            while True:
                cur = self.mul(e, cur)
                coeffs = self.solve(np.concatenate(chain, axis=1), cur)
                if coeffs is not None:
                    local = np.concatenate(
                        [(-coeffs[:, 0]) % self.p, np.ones(1, dtype=np.int64)]
                    )
                    break
                chain.append(cur)
            mu = self.poly_mul(mu, local)
            annihilator = None
        return mu

    # -- factorization needed by Fitting splitting ---------------------

    def squarefree_part(self, f: np.ndarray) -> np.ndarray:
        d = self.poly_deriv(f)
        if d.size == 1 and d[0] == 0:
            # f = g(t^p); over F_p its distinct roots are those of g, and
            # our minimal polynomials have degree < p, so this cannot occur
            raise FieldSizeError("polynomial degree reached the field characteristic")
        g = self.poly_gcd(f, d)
        return self.poly_divmod(f, g)[0]

    def distinct_degree_split(self, f: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Split a squarefree monic f into (degree, product-of-that-degree) parts."""
        parts = []
        t = np.array([0, 1], dtype=np.int64)
        h = t.copy()
        d = 0
        rest = f
        while rest.size - 1 >= 2 * (d + 1):
            d += 1
            h = self.poly_pow_mod(h, self.p, rest)
            g = self.poly_gcd(self._poly_sub(h, t), rest)
            if g.size > 1:
                parts.append((d, g))
                rest = self.poly_divmod(rest, g)[0]
                h = self.poly_mod(h, rest)
        if rest.size > 1:
            parts.append((rest.size - 1, rest))
        return parts

    def _poly_sub(self, f, g):
        n = max(f.size, g.size)
        out = np.zeros(n, dtype=np.int64)
        out[: f.size] += f
        out[: g.size] -= g
        return out % self.p

    def roots_of_split_poly(self, f: np.ndarray) -> list[int]:
        """Roots of a squarefree product of linear factors.

        Splits by gcd with (t+a)^((p-1)/2) - 1 for a = 0, 1, 2, ...; the
        shift sequence is fixed, so the result is deterministic.
        """
        f = self.poly_trim(f)
        out: list[int] = []
        stack = [f]
        shift = 0
        guard = 0
        while stack:
            g = stack.pop()
            if g.size == 1:
                continue
            if g.size == 2:
                out.append(int((-g[0] * self.inv_scalar(int(g[1]))) % self.p))
                continue
            while True:
                guard += 1
                if guard > 4 * self.p:
                    raise FieldSizeError("root extraction failed to split")
                base = np.array([shift % self.p, 1], dtype=np.int64)
                shift += 1
                h = self.poly_pow_mod(base, (self.p - 1) // 2, g)
                h = self._poly_sub(h, np.ones(1, dtype=np.int64))
                cand = self.poly_gcd(h, g)
                if 1 < cand.size < g.size:
                    stack.append(cand)
                    stack.append(self.poly_divmod(g, cand)[0])
                    break
        return sorted(out)

    def fitting_split(self, e: np.ndarray) -> list[np.ndarray]:
        """Bases of the generalized eigenspaces of a square matrix.

        The minimal polynomial is factored into pairwise coprime pieces:
        one linear factor per F_p-eigenvalue plus one piece per residual
        degree >= 2 (those are not separated further; callers treat a
        non-split residue as an error state).  Each returned matrix has
        basis vectors as columns; the spaces are e-invariant and sum to
        the whole space.
        """
        if e.shape[0] != e.shape[1]:
            raise InputError("fitting_split needs a square matrix")
        n = e.shape[0]
        if n == 0:
            return []
        mu = self.minimal_polynomial(e)
        sf = self.squarefree_part(mu)
        factors: list[np.ndarray] = []
        for d, part in self.distinct_degree_split(sf):
            if d == 1:
                for lam in self.roots_of_split_poly(part):
                    factors.append(np.array([(-lam) % self.p, 1], dtype=np.int64))
            else:
                factors.append(part)
        if len(factors) == 1:
            return [self.eye(n)]
        spaces = []
        for f in factors:
            m = self.poly_eval_matrix(f, e)
            power = m
            ker = self.kernel_basis(power)
            while True:
                power = self.mul(power, m)
                nxt = self.kernel_basis(power)
                if nxt.shape[1] == ker.shape[1]:
                    break
                ker = nxt
            spaces.append(ker)
        total = sum(s.shape[1] for s in spaces)
        if total != n:
            raise FieldSizeError("generalized eigenspaces do not fill the space")
        return spaces

    # -- radical of a matrix algebra ------------------------------------

    def trace_form_radical(self, basis: list[np.ndarray]) -> np.ndarray:
        """Coordinates (columns) of the radical of span(basis), a matrix algebra.

        Uses the trace bilinear form tr(ab) of the given faithful action.
        Valid when p exceeds every multiplicity in the action; guarded by
        p > matrix size.
        """
        k = len(basis)
        if k == 0:
            return self.zeros(0, 0)
        n = basis[0].shape[0]
        if self.p <= n:
            raise FieldSizeError(f"p = {self.p} too small for trace-form radical (dim {n})")
        gram = self.zeros(k, k)
        for i in range(k):
            for j in range(i, k):
                t = int(np.trace(self.mul(basis[i], basis[j])) % self.p)
                gram[i, j] = t
                gram[j, i] = t
        return self.kernel_basis(gram)
