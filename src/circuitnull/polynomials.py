"""Sparse exact-integer multivariate polynomials and the interlace polynomials.

Every polynomial here is computed two independent ways somewhere in the test
suite: as a nullity sum over induced subgraphs, and as a generating function
over traced circuit partitions. The evaluators keep those routes separate:
each is a reducer over one route that ``circuitnull.partitions`` builds, the
matrix nullities or the traced |P| - c(G); the builder runs the route's guards.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterable, Mapping, Sequence

from .graphs import EulerSystem, Multigraph
from .interlace import LoopedGraph
from .partitions import _matrix_nullities, _traced_nullities

DEFAULT_SUBSET_CAP = 14
DEFAULT_PAIR_CAP = 9


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Sparse polynomial with exact integer coefficients.

    terms maps exponent vectors (aligned with ``variables``) to nonzero
    coefficients and is stored sorted for canonical output. Equality and
    hashing ignore the order of ``variables`` and any variable no term uses.
    """

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def _key(self) -> frozenset:
        return frozenset(
            (tuple(sorted((v, e) for v, e in zip(self.variables, exps) if e)), coef)
            for exps, coef in self.terms
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return False
        if self.variables == other.variables:  # make keeps terms sorted: compare as stored
            return self.terms == other.terms
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def make(
        cls, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]
    ) -> "MultiPoly":
        width = len(variables)
        if width > 1 and len(set(variables)) != width:  # one name cannot repeat
            raise ValueError(f"repeated variable name in {tuple(variables)}")
        index = operator.index  # rejects float and other non-integer exponents and coefficients
        cleaned = {}
        for exps, coef in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not match {width} variables")
            if min(map(index, exps), default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            coef = index(coef)
            if coef:
                cleaned[tuple(exps)] = coef
        # An int subclass such as bool passes index() but would be stored as given.
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(cleaned))):
            cleaned = {tuple(map(index, exps)): coef for exps, coef in cleaned.items()}
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: kv[0], reverse=True))
        return cls(tuple(variables), ordered)

    @classmethod
    def constant(cls, value: int, variables: Sequence[str] = ()) -> "MultiPoly":
        zero = (0,) * len(variables)
        return cls.make(variables, {zero: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls.make((name,), {(1,): 1})

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def _aligned(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self.variables == other.variables:
            return self.variables, self.as_dict(), other.as_dict()
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        return tuple(merged), _embed(self, merged), _embed(other, merged)

    @staticmethod
    def _coerce(value: "MultiPoly | int") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.constant(operator.index(value))

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        variables, a, b = self._aligned(other)
        for exps, coef in b.items():
            a[exps] = a.get(exps, 0) + coef
        return MultiPoly.make(variables, a)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly.make(self.variables, {e: -c for e, c in self.terms})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        variables, a, b = self._aligned(other)
        return MultiPoly.make(variables, _product(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1, self.variables)
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

        One pass folds the constant bindings into the coefficients and
        groups the terms by their remaining exponents; each group is then
        expanded once from cached powers of the polynomial bindings.
        """
        resolved = {name: self._coerce(value) for name, value in bindings.items()}
        free = [i for i, v in enumerate(self.variables) if v not in resolved]
        order = [self.variables[i] for i in free]
        zeros, scales, embedded = [], [], []
        for i, v in enumerate(self.variables):
            if v not in resolved:
                continue
            value = resolved[v]
            order.extend(name for name in value.variables if name not in order)
            # A constant c folds into the coefficients: 0 drops every term using
            # the name, 1 changes nothing, any other c scales a term by c**e.
            if any(any(exps) for exps, _ in value.terms):
                embedded.append((i, value))
            elif not value.terms:
                zeros.append(i)
            elif value.terms[0][1] != 1:
                scales.append((i, value.terms[0][1]))
        groups: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for exps, coef in self.terms:
            if any(exps[i] for i in zeros):
                continue
            for i, c in scales:
                coef *= c ** exps[i]
            key = (tuple(exps[i] for i in free), tuple(exps[i] for i, _ in embedded))
            groups[key] = groups.get(key, 0) + coef
        # powers[j][e] is the e-th power of the j-th polynomial binding, in `order`.
        unit = {(0,) * len(order): 1}
        powers = [[unit, _embed(value, order)] for _, value in embedded]
        # The unbound names lead `order`, so their exponents prefix each output vector.
        padding = (0,) * (len(order) - len(free))
        out: dict[tuple[int, ...], int] = {}
        for (free_exps, bound_exps), coef in groups.items():
            term = {free_exps + padding: coef}
            for cache, e in zip(powers, bound_exps):
                if e:
                    while len(cache) <= e:
                        cache.append(_product(cache[-1], cache[1]))
                    term = _product(term, cache[e])
            for exps, c in term.items():
                out[exps] = out.get(exps, 0) + c
        return MultiPoly.make(order, out)

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Exact integer value; every variable must be bound."""
        for v in self.variables:
            if v not in point:
                raise ValueError(f"unbound variable {v!r}")
        values = [operator.index(point[v]) for v in self.variables]
        total = 0
        for exps, coef in self.terms:
            value = coef
            for x, e in zip(values, exps):
                value *= x ** e
            total += value
        return total

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
            if not factors:
                rendered.append(str(coef))
            elif coef == 1:
                rendered.append("*".join(factors))
            elif coef == -1:
                rendered.append("-" + "*".join(factors))
            else:
                rendered.append(f"{coef}*" + "*".join(factors))
        text = " + ".join(rendered)
        return text.replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [{"exps": list(exps), "coef": str(coef)} for exps, coef in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        terms = {
            tuple(item["exps"]): int(item["coef"]) for item in data["terms"]
        }
        return cls.make(tuple(data["vars"]), terms)


def _product(
    a: Mapping[tuple[int, ...], int], b: Mapping[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
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
    for exps, coef in p.terms:
        key = [0] * len(variables)
        for name, e in zip(p.variables, exps):
            key[slot[name]] = e
        out[tuple(key)] = coef
    return out


@cache
def _minus_one_powers(k: int) -> tuple[int, ...]:
    """Coefficients of (t - 1)^k, constant term first."""
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def _shifted_one_var(counts: Mapping[int, int], var: str) -> MultiPoly:
    """Expand sum_k counts[k] * (var - 1)^k."""
    terms: dict[tuple[int, ...], int] = {}
    for k, c in counts.items():
        for j, b in enumerate(_minus_one_powers(k)):
            terms[(j,)] = terms.get((j,), 0) + c * b
    return MultiPoly.make((var,), terms)


def _shifted_two_var(counts: Mapping[tuple[int, int], int]) -> MultiPoly:
    """Expand sum counts[i,j] * (x-1)^i * (y-1)^j: over x into (a, j), then over y."""
    half: dict[tuple[int, int], int] = {}
    for (i, j), c in counts.items():
        for a, b in enumerate(_minus_one_powers(i)):
            half[a, j] = half.get((a, j), 0) + c * b
    terms: dict[tuple[int, ...], int] = {}
    for (a, j), c in half.items():
        for b, d in enumerate(_minus_one_powers(j)):
            terms[a, b] = terms.get((a, b), 0) + c * d
    return MultiPoly.make(("x", "y"), terms)


def _q_two_variable_poly(n: int, nus: Iterable[int]) -> MultiPoly:
    counts = Counter(zip(map(int.bit_count, range(1 << n)), nus, strict=True))  # (|S|, nu)
    return _shifted_two_var({(size - nu, nu): m for (size, nu), m in counts.items()})


def q_nullity(h: LoopedGraph, cap: int = DEFAULT_SUBSET_CAP) -> MultiPoly:
    """Vertex-nullity interlace polynomial: sum over S of (y-1)^nullity(A[S])."""
    return _shifted_one_var(Counter(_matrix_nullities(h.matrix().rows, 2, cap, "subsets")), "y")


def q_two_variable(h: LoopedGraph, cap: int = DEFAULT_SUBSET_CAP) -> MultiPoly:
    """Two-variable interlace polynomial: sum of (x-1)^(|S|-nu) (y-1)^nu."""
    return _q_two_variable_poly(h.n, _matrix_nullities(h.matrix().rows, 2, cap, "subsets"))


def q_from_partitions(
    g: Multigraph,
    es: EulerSystem,
    loop_set: Iterable[str] = (),
    cap: int = DEFAULT_SUBSET_CAP,
) -> MultiPoly:
    """q_N via tracing: sum over S of (y-1)^(|P_S| - c(G)).

    P_S follows the Euler system off S, flips at looped vertices of S, and
    crosses at unlooped vertices of S.
    """
    return _shifted_one_var(Counter(_traced_nullities(g, es, loop_set, 2, cap, "subsets")), "y")


def q2_from_partitions(
    g: Multigraph,
    es: EulerSystem,
    loop_set: Iterable[str] = (),
    cap: int = DEFAULT_SUBSET_CAP,
) -> MultiPoly:
    """Two-variable analogue: sum of (x-1)^(|S|-|P_S|+c) (y-1)^(|P_S|-c)."""
    nus = _traced_nullities(g, es, loop_set, 2, cap, "subsets")
    return _q_two_variable_poly(len(g.vertices), nus)


def _courcelle_poly(vertices: Sequence[str], nus: Iterable[int]) -> MultiPoly:
    """One monomial per state (0 = neither, 1 = A, 2 = B) from its nullity."""
    n = len(vertices)
    terms: dict[tuple[int, ...], int] = {}
    for state, nu in zip(itertools.product(range(3), repeat=n), nus, strict=True):
        u_exp = n - state.count(0) - nu
        if u_exp < 0:
            raise RuntimeError(
                "internal error: traced partition exceeds the nullity bound"
            )
        exps = (u_exp, nu) + tuple(s & 1 for s in state) + tuple(s >> 1 for s in state)
        terms[exps] = 1
    variables = ("u", "v") + tuple(f"x_{v}" for v in vertices) + tuple(f"y_{v}" for v in vertices)
    return MultiPoly.make(variables, terms)


def courcelle(h: LoopedGraph, cap: int = DEFAULT_PAIR_CAP) -> MultiPoly:
    """Courcelle's multivariate interlace polynomial.

    Sums over disjoint A, B the monomial (prod x_a)(prod y_b) u^(|A u B|-nu)
    v^nu, where nu is the GF(2)-nullity of the adjacency matrix of the
    subgraph induced on A u B after toggling loops on B.
    """
    return _courcelle_poly(h.vertices, _matrix_nullities(h.matrix().rows, 3, cap, "subset pairs"))


def courcelle_from_partitions(
    g: Multigraph,
    es: EulerSystem,
    loop_set: Iterable[str] = (),
    cap: int = DEFAULT_PAIR_CAP,
) -> MultiPoly:
    """Courcelle's polynomial via tracing the partitions P_{A,B}.

    P_{A,B} follows the Euler system off A u B, flips at looped vertices of
    A and unlooped vertices of B, crosses at the rest of A u B; each pair
    contributes (prod x_a u)(prod y_b u)(v/u)^(|P_{A,B}| - c(G)).
    """
    nus = _traced_nullities(g, es, loop_set, 3, cap, "subset pairs")
    return _courcelle_poly(g.vertices, nus)
