"""Sparse exact-integer multivariate polynomials and the interlace polynomials.

Every polynomial here is computed two independent ways somewhere in the test suite: as a
nullity sum over induced subgraphs, and as a generating function over traced circuit
partitions. The evaluators keep those routes separate: each reduces one route that
``circuitnull.partitions`` builds and guards: nullities or traced |P| - c(G) per state, or
an (|S|, nu) histogram of either route (q_N, q). No guard of a sweep is kept here. C(H) is
built in the states' product order, since a polynomial's terms are sorted only when read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .graphs import EulerSystem, Multigraph
from .interlace import LoopedGraph
from .partitions import _matrix_histogram, _matrix_nullities, _traced_histogram, _traced_nullities

DEFAULT_SUBSET_CAP = 14
DEFAULT_PAIR_CAP = 9
DEFAULT_STATE_CAP = 2**16


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Sparse polynomial with exact integer coefficients.

    coefs maps exponent vectors (aligned with ``variables``) to nonzero
    coefficients in no order, and is not to be mutated; ``terms`` sorts them
    on first read, for canonical output. Equality and hashing ignore the
    order of ``variables`` and any variable no term uses.
    """

    variables: tuple[str, ...]
    coefs: dict[tuple[int, ...], int]

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        keys = sorted(self.coefs, reverse=True)  # keys are distinct: no coefficient is compared
        return tuple(zip(keys, map(self.coefs.__getitem__, keys)))

    def _key(self) -> frozenset:
        return frozenset(
            (tuple(sorted((v, e) for v, e in zip(self.variables, exps) if e)), coef)
            for exps, coef in self.coefs.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return False
        if self.variables == other.variables:
            return self.coefs == other.coefs
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def make(cls, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]) -> "MultiPoly":
        width = len(variables)
        if width > 1 and len(set(variables)) != width:  # one name cannot repeat
            raise ValueError(f"repeated variable name in {tuple(variables)}")
        index = operator.index  # rejects float and other non-integer exponents and coefficients
        cleaned = {}
        for exps, coef in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not match {width} variables")
            key = tuple(map(index, exps))  # an int subclass such as bool is stored as int
            if min(key, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            cleaned[key] = index(coef)
        return cls._canonical(variables, cleaned)

    @classmethod
    def _canonical(cls, variables: Sequence[str], terms: Mapping) -> "MultiPoly":
        """Valid terms (int exponents, distinct names) with zeros dropped."""
        return cls(tuple(variables), {exps: coef for exps, coef in terms.items() if coef})

    @classmethod
    def constant(cls, value: int, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls.make(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls.make((name,), {(1,): 1})

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.coefs)

    def _aligned(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self.variables == other.variables:
            return self.variables, self.as_dict(), other.as_dict()
        merged = tuple(dict.fromkeys(self.variables + other.variables))
        return merged, _embed(self, merged), _embed(other, merged)

    @staticmethod
    def _coerce(value: "MultiPoly | int") -> "MultiPoly":
        return value if isinstance(value, MultiPoly) else MultiPoly.constant(value)

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        variables, a, b = self._aligned(other)
        for exps, coef in b.items():
            a[exps] = a.get(exps, 0) + coef
        return MultiPoly._canonical(variables, a)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._canonical(self.variables, {e: -c for e, c in self.coefs.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        variables, a, b = self._aligned(other)
        return MultiPoly._canonical(variables, _product(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = MultiPoly._canonical(self.variables, {(0,) * len(self.variables): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(self, bindings: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Replace variables by polynomials or integer constants, exactly.

        The substitution is simultaneous: ``{"x": y, "y": x}`` swaps x and y.
        Bindings of names this polynomial lacks are ignored. The result's
        variables are this polynomial's unbound names in their own order,
        then the names the bound values bring in, in the order they first
        appear when the bound names are taken in this polynomial's order.

        A C-level pass drops the terms with a positive exponent on a name
        bound to 0; one pass folds the other constants into the coefficients
        and groups the rest by their remaining exponents, each group then
        expanded once from cached powers of the polynomial bindings.
        """
        index = operator.index  # checks every integer binding, used or not
        resolved = {k: v if isinstance(v, MultiPoly) else index(v) for k, v in bindings.items()}
        free = [i for i, v in enumerate(self.variables) if v not in resolved]
        order = [self.variables[i] for i in free]
        zeros, scales, embedded = [], [], []
        for i, v in enumerate(self.variables):
            if v not in resolved:
                continue
            value = resolved[v]
            if isinstance(value, MultiPoly):
                order.extend(name for name in value.variables if name not in order)
                if any(map(any, value.coefs)):
                    embedded.append((i, value))
                    continue
                value = value.coefs.get((0,) * len(value.variables), 0)
            # A constant c folds into the coefficients: 0 drops every term using
            # the name, 1 changes nothing, any other c scales a term by c**e.
            if not value:
                zeros.append(i)
            elif value != 1:
                scales.append((i, value))
        terms: Iterable = self.coefs.items()
        if zeros:  # one C-level pass keeps the terms whose exponents on the zeros are all 0
            zero = (0,) * len(zeros) if len(zeros) > 1 else 0  # one index reads a bare int
            hits = map(itemgetter(*zeros), self.coefs)
            terms = itertools.compress(terms, map(zero.__eq__, hits))
        kept = free + [i for i, _ in embedded]  # a group's key: these exponents, as one tuple
        read = itemgetter(*kept) if len(kept) > 1 else lambda e: tuple(map(e.__getitem__, kept))
        groups: dict[tuple[int, ...], int] = {}
        for exps, coef in terms:
            for i, c in scales:
                coef *= c ** exps[i]
            key = read(exps)
            groups[key] = groups.get(key, 0) + coef
        # powers[j][e] is the e-th power of the j-th polynomial binding, in `order`.
        unit = {(0,) * len(order): 1}
        powers = [[unit, _embed(value, order)] for _, value in embedded]
        # The unbound names lead `order`, so their exponents prefix each output vector.
        padding = (0,) * (len(order) - len(free))
        out: dict[tuple[int, ...], int] = {}
        for key, coef in groups.items():
            term = {key[: len(free)] + padding: coef}
            for cache, e in zip(powers, key[len(free) :]):
                if e:
                    while len(cache) <= e:
                        cache.append(_product(cache[-1], cache[1]))
                    term = _product(term, cache[e])
            for exps, c in term.items():
                out[exps] = out.get(exps, 0) + c
        return MultiPoly._canonical(order, out)

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Exact integer value; every variable must be bound."""
        for v in self.variables:
            if v not in point:
                raise ValueError(f"unbound variable {v!r}")
        # index() keeps a polynomial value out: substitute would accept one.
        constant = self.substitute({v: operator.index(point[v]) for v in self.variables})
        return constant.coefs.get((), 0)

    def to_text(self) -> str:
        """Canonical human-readable form, e.g. "3*x^2*y + y - 1"."""
        if not self.terms:
            return "0"
        rendered = []
        for exps, coef in self.terms:
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            prefix = {1: "", -1: "-"}.get(coef, f"{coef}*")
            rendered.append(prefix + "*".join(factors) if factors else str(coef))
        text = " + ".join(rendered)
        return text.replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [{"exps": list(exps), "coef": str(coef)} for exps, coef in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        terms = {tuple(item["exps"]): int(item["coef"]) for item in data["terms"]}
        return cls.make(tuple(data["vars"]), terms)


def _product(a: Mapping, b: Mapping) -> dict[tuple[int, ...], int]:
    """Product of two term dicts whose exponent vectors share one variable order."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _embed(p: MultiPoly, variables: Sequence[str]) -> dict[tuple[int, ...], int]:
    slot = {name: i for i, name in enumerate(variables)}
    out: dict[tuple[int, ...], int] = {}
    for exps, coef in p.coefs.items():
        key = [0] * len(variables)
        for name, e in zip(p.variables, exps):
            key[slot[name]] = e
        out[tuple(key)] = coef
    return out


@cache
def _minus_one_powers(k: int) -> tuple[int, ...]:
    """Coefficients of (t - 1)^k, constant term first."""
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def _shifted(weights: Mapping[int, int]) -> list[int]:
    """Coefficients, constant first, of sum weights[k] * (t - 1)^k."""
    out = [0] * (max(weights, default=-1) + 1)
    for k, c in weights.items():
        for j, b in enumerate(_minus_one_powers(k)):
            out[j] += c * b
    return out


def _shifted_one_var(counts: Mapping[tuple[int, int], int]) -> MultiPoly:
    """Expand sum counts[s, k] * (y - 1)^k: summed over s first, each (y - 1)^k once."""
    by_k: dict[int, int] = {}
    for (_, k), c in counts.items():
        by_k[k] = by_k.get(k, 0) + c
    return MultiPoly._canonical(("y",), {(j,): c for j, c in enumerate(_shifted(by_k))})


def _shifted_two_var(counts: Mapping[tuple[int, int], int]) -> MultiPoly:
    """Expand sum counts[s,j] * (x-1)^(s-j) * (y-1)^j: each row j over x once, then over y."""
    rows: dict[int, dict[int, int]] = {}
    for (s, j), c in counts.items():
        rows.setdefault(j, {})[s - j] = c
    terms: dict[tuple[int, int], int] = {}
    for j, row in rows.items():
        ys = _minus_one_powers(j)
        for a, c in enumerate(_shifted(row)):
            if c:
                for b, d in enumerate(ys):
                    terms[a, b] = terms.get((a, b), 0) + c * d
    return MultiPoly._canonical(("x", "y"), terms)


def q_nullity(h: LoopedGraph, cap: int = DEFAULT_SUBSET_CAP) -> MultiPoly:
    """Vertex-nullity interlace polynomial: sum over S of (y-1)^nullity(A[S])."""
    return _shifted_one_var(_matrix_histogram(h, cap))


def q_two_variable(h: LoopedGraph, cap: int = DEFAULT_SUBSET_CAP) -> MultiPoly:
    """Two-variable interlace polynomial: sum of (x-1)^(|S|-nu) (y-1)^nu."""
    return _shifted_two_var(_matrix_histogram(h, cap))


def q_from_partitions(
    g: Multigraph, es: EulerSystem, loop_set: Iterable[str] = (), cap: int = DEFAULT_STATE_CAP
) -> MultiPoly:
    """q_N via tracing: sum over S of (y-1)^(|P_S| - c(G)).

    P_S follows the Euler system off S, flips at looped vertices of S, and
    crosses at unlooped vertices of S. ``cap`` bounds the live DP states.
    """
    return _shifted_one_var(_traced_histogram(g, es, loop_set, cap))


def q2_from_partitions(
    g: Multigraph, es: EulerSystem, loop_set: Iterable[str] = (), cap: int = DEFAULT_STATE_CAP
) -> MultiPoly:
    """Two-variable analogue: sum of (x-1)^(|S|-|P_S|+c) (y-1)^(|P_S|-c)."""
    return _shifted_two_var(_traced_histogram(g, es, loop_set, cap))


@cache
def _courcelle_sizes(n: int) -> list[int]:
    """|A u B| per state in product order: state 3i + d extends state i by digit d."""
    sizes = [0]
    for _ in range(n):
        sizes = [s + d for s in sizes for d in (0, 1, 1)]
    return sizes


def _courcelle_poly(vertices: Sequence[str], nus: Iterable[int]) -> MultiPoly:
    """One monomial per state (0 = neither, 1 = A, 2 = B) from its nullity, in product order."""
    n, nus = len(vertices), list(nus)
    us = list(itertools.starmap(operator.sub, zip(_courcelle_sizes(n), nus, strict=True)))
    if min(us) < 0 or min(nus) < 0:
        raise RuntimeError("internal error: a nullity outside 0..|A u B|")
    xs = itertools.product((0, 1, 0), repeat=n)  # the x_v and y_v exponents of each state
    ys = itertools.product((0, 0, 1), repeat=n)
    exps = map(operator.add, map(operator.add, zip(us, nus), xs), ys)
    variables = ("u", "v", *(f"{c}_{v}" for c in "xy" for v in vertices))
    return MultiPoly(variables, dict.fromkeys(exps, 1))


def courcelle(h: LoopedGraph, cap: int = DEFAULT_PAIR_CAP) -> MultiPoly:
    """Courcelle's multivariate interlace polynomial.

    Sums over disjoint A, B the monomial (prod x_a)(prod y_b) u^(|A u B|-nu)
    v^nu, where nu is the GF(2)-nullity of the adjacency matrix of the
    subgraph induced on A u B after toggling loops on B.
    """
    return _courcelle_poly(h.vertices, _matrix_nullities(h.matrix.rows, 3, cap, "subset pairs"))


def courcelle_from_partitions(
    g: Multigraph, es: EulerSystem, loop_set: Iterable[str] = (), cap: int = DEFAULT_PAIR_CAP
) -> MultiPoly:
    """Courcelle's polynomial via tracing the partitions P_{A,B}.

    P_{A,B} follows the Euler system off A u B, flips at looped vertices of
    A and unlooped vertices of B, crosses at the rest of A u B; each pair
    contributes (prod x_a u)(prod y_b u)(v/u)^(|P_{A,B}| - c(G)).
    """
    return _courcelle_poly(g.vertices, _traced_nullities(g, es, loop_set, 3, cap, "subset pairs"))
