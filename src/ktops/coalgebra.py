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
stored.  Every stock basis is a Newton basis on integer nodes z_l,
built by _node_basis: z_l = b**l for a ThetaCoalgebra, 1, -1, 3, -3, 9,
... for k(2) and K(2), and l for binomial_coalgebra.  Three coefficient
tables are derived from the basis and memoized:

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
  at odd p, ko(2) and KO(2)), works on the dual side, a_n = sigma_n
  theta_n(T) with theta_n(T) = prod_{l<n} (T - y_l), y_l =
  b**extending_slot(l): Gamma_n[i][j] = (sigma_i sigma_j / sigma_n)
  Q_n(i, j), Q_n(i, j) the coefficient of theta_n in theta_i theta_j, and
  Q_n(i, j) = Q_(n-1)(i, j-1) + (y_n - y_(j-1)) Q_n(i, j-1) builds table
  n from table n-1 in O(n**2) multiplies by a node difference, nonzero
  only for max(i, j) <= n <= i + j (proofs in _gamma_table).  It owns
  every fact of the node sequence: scale, nodes, dual_basis, order,
  gap_valuation and product_row, which the congruence condition of
  ktops.checks reads.

k(2), K(2), the binomial and monomial coalgebras and every user-built
CoalgebraSpec run the kernel, the reference the recursion is checked
against.  Each route fills table n in one loop that hands every nonzero
entry with i <= j to a maker as integers, (num, den), or num alone when
it is an integer, and that one loop gives three views: coproduct_matrix(n)
with the maker Fraction, every zero the one shared Fraction(0);
coproduct_text(n), str(Fraction(num, den)) by one gcd and one format,
for printing; and verify_regularity's unreduced (num, den) pairs,
which it tests and compares on integers.  The older route, clearing a
LaurentPoly remainder one Fraction operation at a time, is the oracle
in tests/oracles.py.

coproduct_entry(i, j, n) reads one entry, zero for i > n or j > n.  A
BandedCoalgebra, ThetaCoalgebra or the coalgebra of k(2) and K(2)
(ktops.spectra.InterleavedCoalgebra), answers n > i + j from its proven
band and builds no table there; every other coalgebra builds table n.

A CoalgebraSpec holds its memoized tables and compares by identity; a
ThetaCoalgebra compares by the four numbers that fix its tables.
CheckResult and RegularityReport are NamedTuples compared by value.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .laurent import LaurentPoly, times_linear
from .rationals import _check_prime, _int_valuation, _order_mod_prime


_ZERO = Fraction(0)

# basis(n) -> (d, {k: m_k}), the integer monomial form of element n
Basis = Callable[[int], tuple[int, dict[int, int]]]


class NotRegularError(ValueError):
    pass


def _require_prime(spec: CoalgebraSpec) -> int:
    """The prime of spec, for a job defined only p-locally; a coalgebra over Z is refused by name."""
    if spec.prime is None:
        raise ValueError(f"this needs a p-local coalgebra; {spec.name or 'the coalgebra'} has no prime")
    return spec.prime


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
        if prime is not None:
            _check_prime(prime)
        self.step = step
        self.basis = basis
        self.prime = prime
        self.periodic = periodic
        self.name = name
        self._mono: dict = {}
        self._icoords: dict = {}
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
        """Whether the int or Fraction x lies in Z, or in Z_(p) for a prime p."""
        return self._integral(x.numerator, x.denominator)

    def _integral(self, num: int, den: int) -> bool:
        """Whether num / den, den != 0 in any terms, lies in the ground ring:
        over Z when den divides num; over Z_(p) when num is 0, p does not
        divide den, or p**nu_p(den) divides num, with no gcd."""
        p = self.prime
        if p is None:
            return num % den == 0
        return not num or den % p != 0 or num % p ** _int_valuation(p, den) == 0

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
        every entry to lie in the ground ring.  A view of _int_coords, unmemoized.
        """
        d, nz = self._int_coords(k)
        coords = [_ZERO] * (self.resolving_index(k) + 1)
        for i, a in nz:
            coords[i] = Fraction(a, d)
        return tuple(coords)

    def coproduct_matrix(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        """Structure constants G with Delta(c_n) = sum_{i,j} G[i][j] c_i (x) c_j.

        Memoized per n in _gamma, the one table memo.  The route is
        chosen by the type of the coalgebra: a ThetaCoalgebra runs its
        Newton recursion (proven in its _gamma_table), every other
        coalgebra the monomial-sum kernel below, the reference the
        recursion is checked against.

        Kernel: since w is grouplike, Delta(c_n) = (1/d) sum_k m_k
        w**(rk) (x) w**(rk); expanding each monomial through basis_coords
        gives G[i][j] = sum_k coords_k[i] * coords_k[j] * m_k / d.  Each
        term is symmetric in i and j, so only i <= j is summed.  With
        coords_k = A_k / D_k and L the lcm of the D_k**2, the sum runs on
        integers and G[i][j] = (sum_k m_k (L / D_k**2) A_ki A_kj) / (d L).
        """
        if n in self._gamma:
            return self._gamma[n]
        out = self._gamma_table(n, Fraction, _ZERO)
        self._gamma[n] = out
        return out

    def coproduct_text(self, n: int) -> tuple[tuple[str, ...], ...]:
        """coproduct_matrix(n) with each entry as str writes its Fraction.

        Built by the same loop from the integer form of each entry, with
        no Fraction made and no memo; zeros are "0" and the entries (i, j)
        and (j, i) share one string.  Ints above Python's int-to-str digit
        limit raise ValueError unless the caller has lifted it.
        """
        return self._gamma_table(n, _fraction_text, "0")

    def _gamma_table(self, n: int, make: Callable[..., object], zero) -> tuple[tuple, ...]:
        """The monomial-sum kernel of coproduct_matrix, entry (i, j) being
        make(num, den) for num / den, or zero."""
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
        g = [[zero] * size for _ in range(size)]
        for i, row in enumerate(acc):
            for j in range(i, size):
                if row[j]:
                    g[i][j] = g[j][i] = make(row[j], den)
        return tuple(tuple(row) for row in g)

    def coproduct_entry(self, i: int, j: int, n: int) -> Fraction:
        """G[i][j] of element n, with the triangular zeros filled in: the
        shared zero when i > n or j > n, else read off coproduct_matrix(n),
        which builds table n.  A BandedCoalgebra answers n > i + j from its
        band instead."""
        if min(i, j, n) < 0:
            raise ValueError("basis indices start at 0")
        if i > n or j > n:
            return _ZERO
        return self.coproduct_matrix(n)[i][j]

    def monomial_slots(self, limit: int) -> list[int]:
        """All slots k whose monomial is resolvable by basis indices <= limit.

        Index n resolves exactly one new slot, extending_slot(n), so these
        are the extending slots of 0..limit, in increasing order.
        """
        return sorted(map(self.extending_slot, range(limit + 1)))


class BandedCoalgebra(CoalgebraSpec):
    """A coalgebra whose Gamma tables are proven zero above the band,
    G_n[i][j] = 0 for n > i + j: coproduct_entry answers those entries
    with the shared zero and builds no table.  Tables and identity
    equality are CoalgebraSpec's.  The type is the claim, and each
    subclass carries its proof: ThetaCoalgebra in _gamma_table,
    spectra.InterleavedCoalgebra (k(2), K(2)) on its node sequence.
    """

    def coproduct_entry(self, i: int, j: int, n: int) -> Fraction:
        if n > i + j and min(i, j) >= 0:
            return _ZERO
        return super().coproduct_entry(i, j, n)


class ThetaCoalgebra(BandedCoalgebra):
    """The theta-form coalgebra of node base b, on the exponent grid of step r.

    Element n is theta_n(w**r) / theta_n(b**n) with theta_n(x) =
    prod_{i<n} (x - b**i), times w**(-r floor(n/2)) in the periodic
    case: the Newton basis (_node_basis) on the nodes b**0, b**1, ....
    Its dual basis is a product too: with the nodes y_l = b**s_l,
    s_l = extending_slot(l), and theta_n(T) = prod_{l<n} (T - y_l), it is
    a_n = sigma_n theta_n(T), sigma_n = b**(n E_n) with E_n = scale(n),
    floor(n/2) periodically and 0 connectively (dual_basis), so the
    Gamma tables come from the dual side; see _gamma_table, whose proof
    of the band max(i, j) <= n <= i + j makes this a BandedCoalgebra.
    |b| >= 2, or the nodes repeat.

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
        super().__init__(step=step, basis=_node_basis(lambda l: base**l, periodic), prime=prime,
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
        at p = 2, where gap_valuation's closed form needs it.  v is the
        largest v with b**o = 1 mod p**v, read by pow without b**o itself."""
        p, b = self.prime, self.base
        if p is None or b % p == 0:
            raise ValueError(f"node base {b} is not a unit at the prime {p}")
        if p == 2 and b % 4 != 1:
            raise ValueError(f"node base {b} is not 1 mod 4 at the prime 2")
        o, v = _order_mod_prime(b, p), 1
        while pow(b, o, p ** (v + 1)) == 1:
            v += 1
        return o, v

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

    def _gamma_table(self, n: int, make: Callable[..., object], zero) -> tuple[tuple, ...]:
        """Gamma_n by the Newton recursion on the dual basis, entry (i, j)
        being make(num) for an integer num, make(num, den) for num / den,
        or zero.

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
        entry is made from Q'_n(i, j) times that power of b, an integer,
        or from Q'_n(i, j) over it, so make takes no gcd or one against
        that power only; for b < 0 an odd power is a negative denominator:
        Fraction and _fraction_text move its sign up, _pair keeps it, as
        its readers are sign-blind.  Q is symmetric: row i keeps j >= i,
        and Q_n(i, i-1) is read as Q_n(i-1, i).  Only the band j >= max(i,
        n - i) of row i is read, where _newton_step writes; below it every
        entry is zero.  Only the previous raw table is kept, in _raw, at
        its own scale, at most E; _gamma holds the Fractions.
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
        g = [[zero] * size for _ in range(size)]
        for i, row in enumerate(q):
            for j in range(max(i, n - i), size):
                v = row[j]
                if v:
                    s = t[i] + t[j] - t[n]
                    if s not in powers:
                        powers[s] = b ** abs(s)
                    g[i][j] = g[j][i] = make(v * powers[s]) if s >= 0 else make(v, powers[s])
        return tuple(tuple(row) for row in g)


def _fraction_text(num: int, den: int = 1) -> str:
    """str(Fraction(num, den)), den != 0, by one gcd and one format."""
    if den != 1:
        g = gcd(num, den)
        if den < 0:
            g = -g
        num, den = num // g, den // g
        if den != 1:
            return f"{num}/{den}"
    return str(num)


def _node_basis(node: Callable[[int], int], periodic: bool) -> Basis:
    """The Newton basis on the integer nodes z_l = node(l), l >= 0.

    Element n is c_n = N_n(x) / N_n(z_n), N_n(x) = prod_(l<n) (x - z_l),
    with x = w**r, times x**(-floor(n/2)) periodically.  N_n vanishes at
    z_0..z_(n-1), its roots, and the denominator is its value at z_n, so
    c_n vanishes at z_0..z_(n-1) and is 1 at z_n, provided z_n is none of
    the earlier nodes; the periodic factor is a unit at every nonzero
    node and moves no zero.  The integer coefficients of N_n, constant
    term first, are grown one linear factor at a time on the last, and
    slot k carries the coefficient of x**(k + floor(n/2)) periodically,
    of x**k otherwise.  A closure, not a method, so the coalgebra holds
    no reference cycle.
    """
    products = [[1]]

    def basis(n: int):
        while len(products) <= n:
            products.append(times_linear(products[-1], node(len(products) - 1)))
        num, x, den = products[n], node(n), 0
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


def _pair(num: int, den: int = 1) -> tuple[int, int]:
    """verify_regularity's table maker: num / den as (num, den), unreduced; den < 0 for
    an odd power of a base b < 0, which no test on the pair needs to undo."""
    return num, den


def verify_regularity(spec: CoalgebraSpec, limit: int) -> RegularityReport:
    """Run every regularity check on basis indices and monomials up to limit.

    The table checks compare the Gamma tables (the Newton recursion on a
    ThetaCoalgebra, else the monomial-sum kernel) with the monomial
    coordinates (by evaluation, else by elimination) in the last column,
    and with the counit values of the basis, summed over the support of
    the counit only: {0} on the stock spectra, {0, 1} on the binomial
    coalgebra.  The diagonal identity ties the coordinates to the
    monomial forms.  Raises ValueError on a negative limit.

    The checks read integers: each table built once as pairs (num, den),
    coordinate i as A_i / D, D > 0, _integral on a pair, equalities
    cross-multiplied; Fractions only on the counit's support and for a
    counterexample.  The table scan reads j >= i: both routes write G[i][j]
    = G[j][i], so a failing (i, j), j < i, has its mirror (j, i) earlier in
    row-major order, and the first failure is the one a full scan finds.
    The oracle is regularity_by_fractions in tests/oracles.py.
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

    ground, slots = spec._integral, spec.monomial_slots(limit)
    bad = next((
        f"monomial k={k}, index {n}: coordinate {Fraction(a, d)}"
        for k, (d, nz) in zip(slots, map(spec._int_coords, slots))
        for n, a in nz
        if not ground(a, d)
    ), "")
    checks.append(CheckResult("monomial coordinates integral", not bad, bad))

    tables = [spec._gamma_table(n, _pair, (0, 1)) for n in range(limit + 1)]
    bad = next((
        f"element {n}, entry ({i},{j}): {Fraction(num, den)}"
        for n, g in enumerate(tables)
        for i, row in enumerate(g)
        for j, (num, den) in enumerate(row[i:], i)
        if den != 1 and not ground(num, den)
    ), "")
    checks.append(CheckResult("coproduct constants integral", not bad, bad))

    # coordinate n of the monomial that element i resolves is col[n] / big
    cols = [(big, dict(nz)) for big, nz in map(spec._int_coords, map(spec.extending_slot, range(limit + 1)))]
    bad = ""
    for i, (big, col) in enumerate(cols):
        d, mono = spec.monomial_form(i)
        lam = col.get(i, 0) * mono[spec.extending_slot(i)]  # big times the diagonal product
        if lam != d * big:
            bad = f"element {i}: diagonal product {Fraction(lam, big)} != {d}"
            break
    checks.append(CheckResult("diagonal identity", not bad, bad))

    bad = next((
        f"entry ({n},{i}) of element {i}: {Fraction(num, den)} != coordinate {Fraction(col.get(n, 0), big)}"
        for i, (g, (big, col)) in enumerate(zip(tables, cols))
        for n, (num, den) in enumerate(row[i] for row in g[:i + 1])
        if num * big != col.get(n, 0) * den
    ), "")
    checks.append(CheckResult("last column matches monomial coordinates", not bad, bad))

    bad = ""
    eps = [spec.counit_value(i) for i in range(limit + 1)]
    support = [i for i, e in enumerate(eps) if e]
    for n, g in enumerate(tables):
        # sums eps_i G[i][j] (left) and eps_i G[j][i] (right) over i with eps_i != 0
        left, right = [0] * (n + 1), [0] * (n + 1)
        for i in (i for i in support if i <= n):
            for j, row in enumerate(g):
                if g[i][j][0]:
                    left[j] += eps[i] * Fraction(*g[i][j])
                if row[i][0]:
                    right[j] += eps[i] * Fraction(*row[i])
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
# example user coalgebras: plain CoalgebraSpecs, as a caller builds one
# ----------------------------------------------------------------------


def binomial_coalgebra(prime: int | None = None) -> CoalgebraSpec:
    """Integer-valued polynomials: basis element n is binomial(w, n), the
    Newton basis (_node_basis) on the nodes 0, 1, 2, ..., as
    prod_(l<n) (w - l) / n!.  An example of a user coalgebra: a plain
    CoalgebraSpec, run by the kernel and compared by identity."""
    return CoalgebraSpec(step=1, basis=_node_basis(lambda l: l, False), prime=prime, name="binomial")


def monomial_coalgebra(step: int = 1, prime: int | None = None, periodic: bool = False) -> CoalgebraSpec:
    """The plain monomial basis: element n is w**(rn), or the windowed
    monomial in the periodic case.  An example of a user coalgebra, like
    binomial_coalgebra."""
    spec = CoalgebraSpec(step=step, basis=lambda n: (1, {spec.extending_slot(n): 1}),
                         prime=prime, periodic=periodic, name="monomial")
    return spec
