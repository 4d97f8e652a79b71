"""Regular coalgebras of (Laurent) polynomials and their coefficient tables.

A coalgebra here is the span, over Z or over the p-local integers, of
one basis polynomial per index n >= 0 inside Q[w**r, w**-r], with the
variable w grouplike: the comultiplication sends w**k to w**k (x) w**k.
Regularity means the basis element of index n occupies exactly the
degree window of index n and that every monomial w**(rk) lies in the
span with coefficients in the ground ring.

Connective case: element n has exponents inside {0, r, ..., nr} and
exact degree nr.  Periodic case: element n has exponents inside
r*[-floor(n/2), ceil(n/2)] and a nonzero coefficient on the one slot
that window adds over the window of element n-1.

A basis enters as integers only: basis(n) returns (d, {k: m_k}) with
c_n = (1/d) * sum_k m_k w**(rk), e.g. (2, {1: -1, 2: 1}) for (w**2 - w)/2
at r = 1.  basis_poly(n) renders that form as a LaurentPoly and is not
stored.  Three coefficient tables are derived from the basis and
memoized:

* monomial_form(n): basis(n) reduced to d_n > 0 and gcd({m_k}, d_n) = 1,
  with its shape checked against the window of n;
* basis_coords(k): the coordinates of the monomial w**(rk) in the
  basis (exact rationals; regularity asks them to be integral);
* coproduct_matrix(n): the structure constants of the comultiplication,
  i.e. the matrix G with Delta(c_n) = sum G[i][j] c_i (x) c_j.

The tables are built on Python ints.  The coordinates of a monomial are
kept as integers over one denominator, their lcm.  A CoalgebraSpec finds
them by fraction-free elimination; a ThetaCoalgebra reads coordinate n
of w**(rk) as the value of its dual basis element a_n at b**k, one
running product over the nodes, and the elimination is the oracle that
evaluation is checked against.  A Gamma table has two routes, chosen by
the type of the coalgebra and by nothing else:

* the monomial-sum kernel of CoalgebraSpec sums Gamma_n over the
  monomials of c_n as integers over one denominator for the whole table,
  O(n**3) products of big coordinates per table;
* ThetaCoalgebra, the theta-form coalgebras of node base b (k, K, g, G
  at odd p, ko(2) and KO(2)), works on the dual side.  Its dual basis is
  a_n = sigma_n theta_n(T) with theta_n(T) = prod_{l<n} (T - y_l) on the
  nodes y_l = b**extending_slot(l), so Gamma_n[i][j] = <a_i a_j, c_n> =
  (sigma_i sigma_j / sigma_n) Q_n(i, j) with Q_n(i, j) the coefficient
  of theta_n in theta_i theta_j.  Multiplying theta_(j-1) by T - y_(j-1)
  and reading theta_k (T - y) = theta_(k+1) + (y_k - y) theta_k gives
  Q_n(i, 0) = delta_in and Q_n(i, j) = Q_(n-1)(i, j-1) + (y_n - y_(j-1))
  Q_n(i, j-1): table n comes from table n-1 in O(n**2) multiplies by a
  node difference.  Q_n(i, j) = 0 unless max(i, j) <= n <= i + j, since
  theta_max(i,j) divides theta_i theta_j, of degree i + j.
  ThetaCoalgebra._gamma_table has the proofs and the integer scaling.
  ThetaCoalgebra owns every fact of the node sequence: their integer
  scale (scale), the integer nodes (nodes) and dual basis (dual_basis),
  the base's order (o, v) = (ord_p b, nu_p(b**o - 1)), the valuation of
  a node gap (gap_valuation), and the same Newton step run along one
  row of theta_m theta_n - theta_(m+n) (product_row), which the
  congruence condition of ktops.checks reads.

k(2), K(2), the binomial and monomial coalgebras and every user-built
CoalgebraSpec run the kernel, which is also the reference the recursion
is checked against.  A Fraction is made once per entry handed out, and
every zero entry is one shared Fraction(0).  The older route, which
clears a LaurentPoly remainder one Fraction operation at a time, is
kept in tests/oracles.py as the oracle both are checked against.

A CoalgebraSpec holds its memoized tables and compares by identity; a
ThetaCoalgebra compares by the four numbers that fix its tables.
CheckResult and RegularityReport are NamedTuples compared by value.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .laurent import LaurentPoly, times_linear
from .rationals import _int_valuation, is_prime, multiplicative_order


_ZERO = Fraction(0)

# basis(n) -> (d, {k: m_k}), the integer monomial form of element n
Basis = Callable[[int], tuple[int, dict[int, int]]]


class NotRegularError(ValueError):
    pass


class CoalgebraSpec:
    """A choice of ground ring, exponent step and basis polynomials.

    basis(n) returns element n as (d, {k: m_k}) with int entries, meaning
    c_n = (1/d) * sum_k m_k w**(r*k); k is a slot, not an exponent, and
    zeros and common factors are allowed: at r = 1, (2, {1: -1, 2: 1})
    is (w**2 - w) / 2.  It holds the memoized tables, so it compares by
    identity.
    """

    def __init__(self, step: int, basis: Basis, prime: int | None = None,
                 periodic: bool = False, name: str = ""):
        if step < 1:
            raise ValueError("the exponent step must be a positive integer")
        if prime is not None and not is_prime(prime):
            raise ValueError(f"{prime!r} is not a prime")
        self.step = step
        self.basis = basis
        self.prime = prime
        self.periodic = periodic
        self.name = name
        self._mono: dict = {}
        self._icoords: dict = {}
        self._coords: dict = {}
        self._gamma: dict = {}

    def __repr__(self):
        return (f"{type(self).__name__}(step={self.step!r}, basis={self.basis!r}, "
                f"prime={self.prime!r}, periodic={self.periodic!r}, name={self.name!r})")

    # ------------------------------------------------------------------
    # windows and slots
    # ------------------------------------------------------------------

    def window(self, n: int) -> tuple[int, int]:
        """Slot range (lo, hi) that basis element n may occupy."""
        if self.periodic:
            return (-(n // 2), (n + 1) // 2)
        return (0, n)

    def resolving_index(self, k: int) -> int:
        """Least basis index whose window contains slot k."""
        if not self.periodic:
            if k < 0:
                raise NotRegularError("negative exponents need a periodic coalgebra")
            return k
        if k == 0:
            return 0
        return 2 * k - 1 if k > 0 else -2 * k

    def extending_slot(self, n: int) -> int:
        """The one slot that the window of element n adds over element n-1."""
        if not self.periodic:
            return n
        if n == 0:
            return 0
        return (n + 1) // 2 if n % 2 else -(n // 2)

    # ------------------------------------------------------------------
    # basis access and validation
    # ------------------------------------------------------------------

    def monomial_form(self, n: int) -> tuple[int, dict[int, int]]:
        """Element n as (d, {k: m_k}), reduced to d > 0 and gcd({m_k}, d) = 1.

        basis(n) may carry zero numerators and any common factor; they
        are dropped here, after which the shape of the element is checked.
        """
        if n < 0:
            raise ValueError("basis indices start at 0")
        if n in self._mono:
            return self._mono[n]
        d, mono = self.basis(n)
        if d == 0:
            raise NotRegularError(f"element {n} has denominator 0; not a regular basis")
        mono = {k: m for k, m in mono.items() if m}
        g = gcd(d, *mono.values()) * (1 if d > 0 else -1)
        d, mono = d // g, {k: m // g for k, m in mono.items()}
        if n == 0 and (d, mono) != (1, {0: 1}):
            raise NotRegularError("basis element 0 must be the constant 1")
        lo, hi = self.window(n)
        for k in mono:
            if not lo <= k <= hi:
                raise NotRegularError(
                    f"element {n} has exponent {self.step * k} outside its window; "
                    "not a regular basis"
                )
        if self.extending_slot(n) not in mono:
            raise NotRegularError(f"element {n} misses its extending slot; not a regular basis")
        self._mono[n] = (d, mono)
        return d, mono

    def basis_poly(self, n: int) -> LaurentPoly:
        """Element n as a LaurentPoly in w, for display; no library route computes with it."""
        d, mono = self.monomial_form(n)
        return LaurentPoly({self.step * k: Fraction(m, d) for k, m in mono.items()})

    def in_ground_ring(self, x: Fraction) -> bool:
        """Whether the int or Fraction x lies in Z, or in Z_(p) for a prime p.

        The prime was checked once in __init__, so the denominator
        is read directly.
        """
        if self.prime is None:
            return x.denominator == 1
        return x.denominator % self.prime != 0

    def counit_value(self, n: int) -> Fraction:
        """Value of the counit on basis element n (evaluation at w = 1)."""
        d, mono = self.monomial_form(n)
        return Fraction(sum(mono.values()), d)

    # ------------------------------------------------------------------
    # coefficient tables
    # ------------------------------------------------------------------

    def _int_coords(self, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """basis_coords(k) as (D, ((i, A_i), ...)) over the nonzero A_i.

        The coordinate on index i is A_i / D with D > 0 the lcm of their
        denominators.  Fraction-free elimination: the remainder is kept
        as integers R over one denominator, and the extremal slot of R,
        which only the highest-index contributing basis element can
        reach, is cleared with that element's integer monomial form.
        ThetaCoalgebra evaluates its dual basis instead and keeps this
        route as the oracle the evaluation is checked against.
        """
        if k in self._icoords:
            return self._icoords[k]
        rem, den = {k: 1}, 1
        out: dict[int, tuple[int, int]] = {}
        while rem:
            n = max(map(self.resolving_index, rem))
            e = self.extending_slot(n)
            d_n, mono = self.monomial_form(n)
            # x = R_e d_n / (den m_e) clears slot e; with a / b = R_e / m_e
            # in lowest terms, x c_n = (a / (den b)) M for M = d_n c_n
            g = gcd(rem[e], mono[e])
            a, b = rem[e] // g, mono[e] // g
            out[n] = (a * d_n, den * b)
            if b != 1:
                for j in rem:
                    rem[j] *= b
            for j, m in mono.items():
                v = rem.get(j, 0) - a * m
                if v:
                    rem[j] = v
                else:
                    del rem[j]
            den *= b
            g = gcd(den, *rem.values()) if rem else 1
            if g != 1:
                den //= g
                for j in rem:
                    rem[j] //= g
        d = lcm(*(b // gcd(a, b) for a, b in out.values()))
        form = (d, tuple((n, a * d // b) for n, (a, b) in sorted(out.items())))
        self._icoords[k] = form
        return form

    def basis_coords(self, k: int) -> tuple[Fraction, ...]:
        """Coordinates of the monomial w**(rk) in the basis.

        The tuple has length resolving_index(k) + 1; regularity asks
        every entry to lie in the ground ring.
        """
        if k in self._coords:
            return self._coords[k]
        d, nz = self._int_coords(k)
        coords = [_ZERO] * (self.resolving_index(k) + 1)
        for i, a in nz:
            coords[i] = Fraction(a, d)
        coords = tuple(coords)
        self._coords[k] = coords
        return coords

    def coproduct_matrix(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        """Structure constants G with Delta(c_n) = sum_{i,j} G[i][j] c_i (x) c_j.

        Memoized per n in _gamma, the one table memo.  The route is
        chosen by the type of the coalgebra.  ThetaCoalgebra builds table
        n from table n-1 on its dual basis a_n = sigma_n theta_n(T): G[i][j]
        = (sigma_i sigma_j / sigma_n) Q_n(i, j) with Q_n(i, j) =
        Q_(n-1)(i, j-1) + (y_n - y_(j-1)) Q_n(i, j-1), Q_n(i, 0) = delta_in
        (proven in its _gamma_table).  Every other coalgebra runs the
        monomial-sum kernel below, the reference the recursion is
        checked against.

        Kernel: since w is grouplike, Delta(c_n) = (1/d) sum_k m_k
        w**(rk) (x) w**(rk); expanding each monomial through basis_coords
        gives G[i][j] = sum_k coords_k[i] * coords_k[j] * m_k / d.  Each
        term is symmetric in i and j, so only i <= j is summed.  With
        coords_k = A_k / D_k and L the lcm of the D_k**2, the sum runs on
        integers and G[i][j] = (sum_k m_k (L / D_k**2) A_ki A_kj) / (d L).
        """
        if n in self._gamma:
            return self._gamma[n]
        out = self._gamma_table(n)
        self._gamma[n] = out
        return out

    def _gamma_table(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        """The monomial-sum kernel of coproduct_matrix."""
        d, mono = self.monomial_form(n)
        forms = [(mk, *self._int_coords(k)) for k, mk in mono.items()]
        big = lcm(*(dk * dk for _, dk, _ in forms))
        size = n + 1
        acc = [[0] * size for _ in range(size)]
        for mk, dk, nz in forms:
            scale = mk * (big // (dk * dk))
            for t, (i, a) in enumerate(nz):
                row = acc[i]
                sa = scale * a
                for j, b in nz[t:]:
                    row[j] += sa * b
        den = d * big
        g = [[_ZERO] * size for _ in range(size)]
        for i, row in enumerate(acc):
            for j in range(i, size):
                if row[j]:
                    g[i][j] = g[j][i] = Fraction(row[j], den)
        return tuple(tuple(row) for row in g)

    def coproduct_entry(self, i: int, j: int, n: int) -> Fraction:
        """G[i][j] of element n, with the triangular zeros filled in."""
        if min(i, j, n) < 0:
            raise ValueError("basis indices start at 0")
        if i > n or j > n:
            return Fraction(0)
        return self.coproduct_matrix(n)[i][j]

    def monomial_slots(self, limit: int) -> list[int]:
        """All slots k whose monomial is resolvable by basis indices <= limit.

        Index n resolves exactly one new slot, extending_slot(n), so these
        are the extending slots of 0..limit, in increasing order.
        """
        return sorted(map(self.extending_slot, range(limit + 1)))


class ThetaCoalgebra(CoalgebraSpec):
    """The theta-form coalgebra of node base b, on the exponent grid of step r.

    Element n is theta_n(w**r) / theta_n(b**n) with theta_n(x) =
    prod_{i<n} (x - b**i), times w**(-r floor(n/2)) in the periodic
    case.  Its dual basis is a product too: with the nodes y_l = b**s_l,
    s_l = extending_slot(l), and theta_n(T) = prod_{l<n} (T - y_l), it is
    a_n = sigma_n theta_n(T), sigma_n = b**(n E_n) with E_n = scale(n),
    floor(n/2) periodically and 0 connectively (dual_basis), so the
    Gamma tables come from the dual side; see _gamma_table.  |b| >= 2,
    or the nodes repeat.

    On integers: s_l >= -floor(l/2), so at the scale E = E_n of an index
    n the nodes y'_l = b**E y_l, l <= n, are integers (nodes), and with
    theta'_k(Y) = prod_(l<k) (Y - y'_l), theta'_k(b**E T) = b**(kE)
    theta_k(T).  Every exact route (dual_basis, product_row, _gamma_table,
    modules._newton_steps) runs on these nodes and reads b**E back off.

    (base, step, prime, periodic) fix every table, so two theta-form
    coalgebras are equal, and hash alike, when these four agree; the
    name and the memoized tables play no part.  A plain CoalgebraSpec
    holds its basis as a function and stays compared by identity.
    """

    def __init__(self, base: int, step: int, prime: int | None = None,
                 periodic: bool = False, name: str = ""):
        if abs(base) < 2:
            raise ValueError(f"node base {base} repeats its nodes; it needs |b| >= 2")
        self.base = base
        self._raw = None  # (n, E, Q): the last raw table of the recursion
        super().__init__(step=step, basis=_theta_basis(base, periodic), prime=prime,
                         periodic=periodic, name=name)

    def _key(self) -> tuple:
        return self.base, self.step, self.prime, self.periodic

    def __eq__(self, other):
        if not isinstance(other, ThetaCoalgebra):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def scale(self, n: int) -> int:
        """E_n = floor(n/2) periodically and 0 connectively: the scale of the
        integer nodes of index n, and sigma_n = b**(n E_n)."""
        return n // 2 if self.periodic else 0

    def nodes(self, n: int, indices: Iterable[int]) -> list[int]:
        """The integer dual nodes y'_l = b**(E_n + s_l), s_l = extending_slot(l),
        at the scale of index n, for each node index l <= n in indices: the
        one node formula.  Raises ValueError on an index above n, whose node
        need not be an integer there."""
        e, b, slot, ys = self.scale(n), self.base, self.extending_slot, []
        for l in indices:
            if l > n:
                raise ValueError(f"node index {l} is above {n}, the index of the node scale")
            ys.append(b ** (e + slot(l)))
        return ys

    def dual_basis(self, n: int) -> list[int]:
        """The integer coefficients of a_n = sigma_n theta_n(T), constant term
        first: the coefficient of T**k is theta'_n[k] b**(kE), E = E_n."""
        if n < 0:
            raise ValueError("basis indices start at 0")
        f = self.base ** self.scale(n)
        return [c * f**k for k, c in enumerate(reduce(times_linear, self.nodes(n, range(n)), [1]))]

    def _int_coords(self, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """basis_coords(k) as (D, ((i, A_i), ...)), by evaluating the dual basis.

        Since <a_m, c_n> = delta_mn, coordinate n of w**(rk) is <a_n, w**(rk)>.
        As w**(rk) is grouplike, pairing with it is an algebra map, and it
        sends T to beta**(rk) = b**k.  So coordinate n is

            a_n(b**k) = sigma_n theta_n(b**k) = b**(n E_n) prod_(l<n) (b**k - y_l),

        zero for n > N = resolving_index(k), where the factor b**k - y_N
        vanishes, and nonzero for n <= N, as the slots s_l, l < N, differ
        from k = s_N and |b| >= 2.

        On integers: with mu_l = min(k, s_l), b**k - y_l = b**mu_l g_l for
        the integer g_l = b**(k - mu_l) - b**(s_l - mu_l).  One of these two
        exponents is 0, so g_l = +-(b**|k - s_l| - 1), which is -+1 modulo
        every prime factor of b: g_l is prime to b.  So coordinate n is
        P_n b**u_n with P_n = prod_(l<n) g_l prime to b and u_n =
        n E_n + sum_(l<n) mu_l.  Its reduced denominator is
        |b|**max(0, -u_n), and their lcm is D = |b|**U, U = max(0, -min u_n),
        the same D > 0 as the elimination, and A_n = D P_n b**u_n is its
        numerator, nonzero.  Step l of one running product from A_0 = D
        multiplies by g_l b**delta_l, delta_l = u_(l+1) - u_l, which is an
        exact division by b**-delta_l when delta_l < 0, A_(l+1) being an
        integer.  That is N multiplies by small factors, with no gcd.
        CoalgebraSpec._int_coords, the elimination, is the oracle.
        """
        if k in self._icoords:
            return self._icoords[k]
        b, top = self.base, self.resolving_index(k)
        steps, u, low = [], 0, 0
        for l in range(top):
            s = self.extending_slot(l)
            mu = min(k, s)
            delta = (l + 1) * self.scale(l + 1) - l * self.scale(l) + mu
            steps.append((b ** (k - mu) - b ** (s - mu), delta))
            u += delta
            low = min(low, u)
        d = a = abs(b) ** -low
        coords = [(0, a)]
        for n, (g, delta) in enumerate(steps, 1):
            a = a * (g * b**delta) if delta >= 0 else a * g // b**-delta
            coords.append((n, a))
        form = (d, tuple(coords))
        self._icoords[k] = form
        return form

    @cached_property
    def order(self) -> tuple[int, int]:
        """(o, v) = (ord_p(b), nu_p(b**o - 1)), the one fact about the node
        base that the verdicts read; b must be a p-adic unit, and 1 mod 4
        at p = 2, where gap_valuation's closed form needs it."""
        p, b = self.prime, self.base
        if p is None or b % p == 0:
            raise ValueError(f"node base {b} is not a unit at the prime {p}")
        if p == 2 and b % 4 != 1:
            raise ValueError(f"node base {b} is not 1 mod 4 at the prime 2")
        o = multiplicative_order(b, p)
        return o, _int_valuation(p, b**o - 1)

    def gap_valuation(self, k: int) -> int:
        """nu_p(b**|k| - 1), k != 0: the valuation of a node difference k slots
        apart.  By lifting the exponent it is 0 when o does not divide k and
        v + nu_p(k) when it does, (o, v) = order; that needs p odd, or p = 2
        with b = 1 mod 4, as order checks (every stock 2-local base is 9)."""
        o, v = self.order
        return v + _int_valuation(self.prime, k) if k % o == 0 else 0

    def product_row(self, m: int, n: int) -> dict[int, int]:
        """The nonzero coordinates of theta_m theta_n - theta_(m+n) in the basis
        theta_0, theta_1, ..., keyed by the index t, increasing, each scaled
        by the power b**((m+n-t)E), E = scale(m + n), that makes it an integer.

        These coordinates are Q_t(m, n), and this is the recursion of
        _gamma_table run along one row.  With M = max(m, n) and N =
        min(m, n), theta_M is multiplied by the N factors T - y_k, k < N,
        of theta_N, each by the Newton step

            theta_t (T - y_k) = theta_(t+1) + (y_t - y_k) theta_t.

        After k factors the product is theta_(M+k) plus coordinates at
        M..M+k-1 only.  So the coordinates below M are zero, the one at
        m + n cancels theta_(m+n), and only the N at M..M+N-1 are built, in
        N(N+1)/2 multiplies by a node difference, on the 2N integer nodes
        y_0..y_(N-1) and y_M..y_(M+N-1) of nodes(m + n, .).  By the integer
        form of the class docstring the coordinate at t is b**((t-m-n)E)
        times the integer returned; for a p-adic unit b both have the same
        valuation.
        """
        big, small = max(m, n), min(m, n)
        low, high = self.nodes(m + n, range(small)), self.nodes(m + n, range(big, big + small))
        row: list[int] = []  # coordinates at M, M+1, ...; the top one, 1, implied
        for y in low:
            row.append(1)
            carry = 0
            for i, h in enumerate(high[:len(row)]):
                carry, row[i] = row[i], carry + (h - y) * row[i]
        return {big + i: c for i, c in enumerate(row) if c}

    def _gamma_table(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        """Gamma_n by the Newton recursion on the dual basis.

        Pairing is dual to the coproduct and a_i pairs to delta_in with
        c_n, so G[i][j] = <a_i a_j, c_n>.  Write theta_i theta_j =
        sum_n Q_n(i, j) theta_n in the Newton basis of the nodes; then
        a_i a_j = sum_n (sigma_i sigma_j / sigma_n) Q_n(i, j) a_n and

            G[i][j] = (sigma_i sigma_j / sigma_n) Q_n(i, j).

        Recursion: theta_0 = 1 gives Q_n(i, 0) = delta_in, and from
        theta_j = theta_(j-1) (T - y_(j-1)) and theta_k (T - y_(j-1)) =
        theta_(k+1) + (y_k - y_(j-1)) theta_k,

            Q_n(i, j) = Q_(n-1)(i, j-1) + (y_n - y_(j-1)) Q_n(i, j-1).

        So table n comes from table n-1 with one multiply by a node
        difference per entry.  Band: G[i][j] = 0 unless max(i, j) <= n
        <= i + j.  Proof: theta_i theta_j has degree i + j, so no theta_n
        with n > i + j occurs.  And theta_k divides it, k = max(i, j):
        theta_i theta_j = theta_k f with f of degree d = min(i, j).  The
        products prod_(k<=l'<k+l) (T - y_l'), l = 0..d, are monic of
        degree l, so f = sum_l c_l of them, and theta_k times the l-th
        one is theta_(k+l); no theta_n with n < k occurs.

        On integers (class docstring): on the nodes of nodes(n, .), E =
        scale(n), the recursion returns Q'_n(i, j) = b**((i+j-n)E) Q_n(i, j),
        an integer, with exponent >= 0 in the band.  Then G[i][j] =
        b**(t_i + t_j - t_n) Q'_n(i, j), t_k = k (E_k - E), and each
        Fraction takes its gcd against that power of b only.  Q is
        symmetric: row i keeps j >= i, and Q_n(i, i-1) is read as
        Q_n(i-1, i).  Only the previous raw table is kept, in _raw, at its
        own scale, at most E; _gamma holds the Fractions.
        """
        b, e = self.base, self.scale(n)
        if self._raw is None or self._raw[0] > n:
            m, q = 0, [[1]]
        else:
            m, e0, q = self._raw
            if e0 < e:
                f = b ** (e - e0)
                q = [[v * f ** (i + j - m) if v else 0 for j, v in enumerate(row)]
                     for i, row in enumerate(q)]
        ys = self.nodes(n, range(n + 1))
        while m < n:
            m += 1
            q = _newton_step(q, ys, m)
        self._raw = (n, e, q)

        size = n + 1
        t = [k * (self.scale(k) - e) for k in range(size)]
        powers = {0: 1}
        g = [[_ZERO] * size for _ in range(size)]
        for i, row in enumerate(q):
            for j in range(i, size):
                v = row[j]
                if v:
                    s = t[i] + t[j] - t[n]
                    if s not in powers:
                        powers[s] = b ** abs(s)
                    g[i][j] = g[j][i] = Fraction(v * powers[s]) if s >= 0 else Fraction(v, powers[s])
        return tuple(tuple(row) for row in g)


def _theta_basis(b: int, periodic: bool) -> Basis:
    # integer coefficients of theta_n(x) = prod_{i<n} (x - b**i), constant
    # term first, each one linear factor on the last; slot k carries the
    # coefficient of x**(k + floor(n/2)) periodically, of x**k otherwise.
    # A closure, not a method, so the coalgebra holds no reference cycle
    thetas = [[1]]

    def basis(n: int):
        while len(thetas) <= n:
            thetas.append(times_linear(thetas[-1], b ** (len(thetas) - 1)))
        num, x, den = thetas[n], b**n, 0
        for c in reversed(num):
            den = den * x + c
        shift = n // 2 if periodic else 0
        return den, {k - shift: c for k, c in enumerate(num)}

    return basis


def _newton_step(prev: list[list[int]], ys: list[int], m: int) -> list[list[int]]:
    """Q'_m from Q'_(m-1) (ThetaCoalgebra._gamma_table), rows kept for j >= i.

    Row i starts at lo = max(i, m - i), the lower edge of the band, from
    Q_m(i, lo-1): zero below the band, else Q_m(i-1, i) in the row above.
    """
    diff = [ys[m] - y for y in ys[:m]]  # diff[j-1] = y_m - y_(j-1)
    rows: list[list[int]] = []
    for i in range(m + 1):
        row = [0] * (m + 1)
        lo = max(i, m - i)
        if lo == i:
            acc, p = rows[i - 1][i], (prev[i - 1][i] if i < m else 0)
        else:
            acc, p = 0, prev[i][lo - 1]
        acc = row[lo] = p + diff[lo - 1] * acc
        if i < m:
            for j, (p, d) in enumerate(zip(prev[i][lo:], diff[lo:]), lo + 1):
                acc = row[j] = p + d * acc
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# regularity verification
# ----------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    ok: bool
    counterexample: str = ""


class RegularityReport(NamedTuple):
    limit: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"FAIL ({c.counterexample})"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def verify_regularity(spec: CoalgebraSpec, limit: int) -> RegularityReport:
    """Run every regularity check on basis indices and monomials up to limit.

    On a ThetaCoalgebra the table checks compare the Newton recursion of
    the Gamma tables with the monomial coordinates, read off the dual
    basis by evaluation (last column), and with the counit values of the
    basis (counit law); the diagonal identity ties those coordinates to
    the monomial forms of the basis.  On any other coalgebra the tables
    come from the monomial-sum kernel, which is built from the
    coordinates of the fraction-free elimination.  The counit law sums
    over the support of the counit only: {0} on the eight stock spectra,
    {0, 1} on the binomial coalgebra and every index on the monomial
    ones.  Raises ValueError on a negative limit.
    """
    if limit < 0:
        raise ValueError("the limit must be non-negative")
    checks: list[CheckResult] = []

    bad = ""
    for n in range(limit + 1):
        try:
            spec.monomial_form(n)
        except NotRegularError as e:
            bad = f"n={n}: {e}"
            break
    checks.append(CheckResult("basis shape", not bad, bad))
    if bad:
        return RegularityReport(limit, checks)

    bad = next((
        f"monomial k={k}, index {n}: coordinate {v}"
        for k in spec.monomial_slots(limit)
        for n, v in enumerate(spec.basis_coords(k))
        if not spec.in_ground_ring(v)
    ), "")
    checks.append(CheckResult("monomial coordinates integral", not bad, bad))

    bad = next((
        f"element {n}, entry ({i},{j}): {v}"
        for n in range(limit + 1)
        for i, row in enumerate(spec.coproduct_matrix(n))
        for j, v in enumerate(row)
        # both table routes hand out one shared zero, and zero is integral
        if v is not _ZERO and not spec.in_ground_ring(v)
    ), "")
    checks.append(CheckResult("coproduct constants integral", not bad, bad))

    bad = ""
    for i in range(limit + 1):
        d, mono = spec.monomial_form(i)
        ki = spec.extending_slot(i)
        lam = spec.basis_coords(ki)[i] * mono[ki]
        if lam != d:
            bad = f"element {i}: diagonal product {lam} != {d}"
            break
    checks.append(CheckResult("diagonal identity", not bad, bad))

    bad = ""
    for i in range(limit + 1):
        g = spec.coproduct_matrix(i)
        coords = spec.basis_coords(spec.extending_slot(i))
        for n in range(i + 1):
            if g[n][i] != coords[n]:
                bad = f"entry ({n},{i}) of element {i}: {g[n][i]} != coordinate {coords[n]}"
                break
        if bad:
            break
    checks.append(CheckResult("last column matches monomial coordinates", not bad, bad))

    bad = ""
    eps = [spec.counit_value(i) for i in range(limit + 1)]
    support = [i for i, e in enumerate(eps) if e]
    for n in range(limit + 1):
        # sums eps_i G[i][j] (left) and eps_i G[j][i] (right) over i with eps_i != 0
        g = spec.coproduct_matrix(n)
        left, right = [0] * (n + 1), [0] * (n + 1)
        for i in (i for i in support if i <= n):
            for j, row in enumerate(g):
                if g[i][j]:
                    left[j] += eps[i] * g[i][j]
                if row[i]:
                    right[j] += eps[i] * row[i]
        for j in range(n + 1):
            want = 1 if j == n else 0
            if left[j] != want or right[j] != want:
                bad = f"element {n}, index {j}: counit sums ({left[j]}, {right[j]})"
                break
        if bad:
            break
    checks.append(CheckResult("counit law", not bad, bad))

    return RegularityReport(limit, checks)


# ----------------------------------------------------------------------
# stock examples
# ----------------------------------------------------------------------


def binomial_coalgebra(prime: int | None = None) -> CoalgebraSpec:
    """Integer-valued polynomials: basis element n is binomial(w, n)."""

    def basis(n: int) -> tuple[int, dict[int, int]]:
        return factorial(n), dict(enumerate(reduce(times_linear, range(n), [1])))

    return CoalgebraSpec(step=1, basis=basis, prime=prime, name="binomial")


def monomial_coalgebra(step: int = 1, prime: int | None = None, periodic: bool = False) -> CoalgebraSpec:
    """The plain monomial basis: element n is w**(rn), or the windowed
    monomial in the periodic case."""
    spec = CoalgebraSpec(step=step, basis=lambda n: (1, {spec.extending_slot(n): 1}),
                         prime=prime, periodic=periodic, name="monomial")
    return spec
