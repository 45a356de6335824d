"""Randomized verification of the relation-calculus identities.

Every in-scope statement about relations, idempotents, triples, adjoints and
angles is transcribed as a named check; :func:`verify_suite` runs each check
on freshly generated instances and reports failure counts plus the first
counterexample.  Per-trial randomness derives from (seed, check name, trial
index), so runs are reproducible and report bytes are stable.

Class-targeted generators build sub-idempotents, super-idempotents and
idempotents from their canonical forms, which is what makes the equivalence
checks two-sided: mixed pools exercise the "false" sides, canonical
constructions the "true" sides.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from .angles import require_tol
from .documents import document_dict, wrap
from .errors import DimensionError, InternalCheckError, PreconditionError
from .idempotents import (
    IdempotentTriple,
    RangeTriple,
    build_pmns,
    semi_projection,
    sub_form,
    super_form,
)
from .relations import LinearRelation, _combine_rows
from .scalars import GaussianRational
from .subspaces import Subspace

MAX_AMBIENT = 8


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the random instance generator."""

    ambient_dim: int = 4
    trials: int = 100
    seed: int = 0
    max_entry: int = 5
    complex_enabled: bool = True
    extremality_samples: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if not 1 <= self.ambient_dim <= MAX_AMBIENT:
            raise DimensionError(
                f"ambient_dim must be in 1..{MAX_AMBIENT}, got {self.ambient_dim}"
            )
        if self.trials < 0:
            raise PreconditionError("trials must be nonnegative")
        if self.max_entry < 1:
            raise PreconditionError("max_entry must be at least 1")
        require_tol(self.tol)

    def json_dict(self) -> dict:
        return asdict(self)


def trial_rng(seed: int, check_name: str, index: int) -> random.Random:
    """Independent deterministic stream per (seed, check, trial)."""
    digest = hashlib.sha256(
        f"{seed}:{check_name}:{index}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- generators -----------------------------------------------------------------


def random_scalar(rng: random.Random, cfg: GenConfig) -> GaussianRational:
    re = rng.randint(-cfg.max_entry, cfg.max_entry)
    im = rng.randint(-cfg.max_entry, cfg.max_entry) if cfg.complex_enabled else 0
    return GaussianRational(re, im)


def random_vector(rng, cfg, n: int):
    return [random_scalar(rng, cfg) for _ in range(n)]


def _random_int_row(rng, cfg, n: int):
    e = cfg.max_entry
    re = tuple(rng.randint(-e, e) for _ in range(n))
    if cfg.complex_enabled:
        im = tuple(rng.randint(-e, e) for _ in range(n))
        if any(im):
            return (1, re, im)
    return (1, re, None)


def random_subspace(
    rng, cfg, ambient: int | None = None, dim: int | None = None
) -> Subspace:
    """Row space of a random integer matrix; a requested dimension is
    achieved by regenerating on rank deficiency."""
    n = cfg.ambient_dim if ambient is None else ambient
    if dim is None:
        k = rng.randint(0, n)
        return Subspace.from_int_rows(
            [_random_int_row(rng, cfg, n) for _ in range(k)], n
        )
    if dim > n:
        raise DimensionError(f"requested dim {dim} exceeds ambient {n}")
    if dim == 0:
        return Subspace.zero(n)
    while True:
        s = Subspace.from_int_rows(
            [_random_int_row(rng, cfg, n) for _ in range(dim)], n
        )
        if s.dim == dim:
            return s


def random_relation(
    rng, cfg, dim_in: int | None = None, dim_out: int | None = None
) -> LinearRelation:
    n = cfg.ambient_dim if dim_in is None else dim_in
    m = n if dim_out is None else dim_out
    k = rng.randint(0, n + m)
    rows = [_random_int_row(rng, cfg, n + m) for _ in range(k)]
    return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))


def random_operator(rng, cfg, n: int | None = None) -> LinearRelation:
    n = cfg.ambient_dim if n is None else n
    cols = [_random_int_row(rng, cfg, n) for _ in range(n)]
    rows = []
    for i in range(n):
        re = [0] * n
        re[i] = 1
        _, cre, cim = cols[i]
        rows.append(
            (1, tuple(re) + cre, None if cim is None else (0,) * n + cim)
        )
    return LinearRelation(n, n, Subspace.from_int_rows(rows, 2 * n))


def random_sub_idempotent(rng, cfg) -> LinearRelation:
    return sub_form(
        random_subspace(rng, cfg), random_subspace(rng, cfg), random_subspace(rng, cfg)
    )


def random_super_idempotent(rng, cfg) -> LinearRelation:
    return super_form(
        random_subspace(rng, cfg), random_subspace(rng, cfg), random_subspace(rng, cfg)
    )


def random_independent_split(rng, cfg, parts: int = 3):
    """Split a random independent family into ``parts`` transversal spans."""
    n = cfg.ambient_dim
    target = rng.randint(0, n)
    chosen: list[list] = []
    current = Subspace.zero(n)
    attempts = 0
    while current.dim < target and attempts < 8 * n:
        attempts += 1
        v = random_vector(rng, cfg, n)
        grown = current.sum_with(Subspace.span([v], n))
        if grown.dim > current.dim:
            chosen.append(v)
            current = grown
    groups = [[] for _ in range(parts)]
    for v in chosen:
        groups[rng.randrange(parts)].append(v)
    return [Subspace.span(g, n) for g in groups]


def random_ic_triple(rng, cfg) -> IdempotentTriple:
    """IC triples from the two constructive recipes.

    Pairwise intersections of arbitrary subspaces always satisfy the IC, and
    so do transversal triples with (M direct-sum N) meet S = 0.
    """
    recipe = rng.randrange(3)
    if recipe == 0:
        a = random_subspace(rng, cfg)
        b = random_subspace(rng, cfg)
        c = random_subspace(rng, cfg)
        return IdempotentTriple(
            b.intersect(c), a.intersect(c), a.intersect(b)
        )
    if recipe == 1:
        m, n, s = random_independent_split(rng, cfg)
        return IdempotentTriple(m, n, s)
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    return IdempotentTriple(m, n, m.intersect(n))


def random_idempotent(rng, cfg) -> LinearRelation:
    t = random_ic_triple(rng, cfg)
    return build_pmns(t.m, t.n, t.s)


def random_semi_projection(rng, cfg) -> LinearRelation:
    return semi_projection(random_subspace(rng, cfg), random_subspace(rng, cfg))


def random_square_pool(rng, cfg) -> LinearRelation:
    """Mixed population for two-sided equivalence checks."""
    n = cfg.ambient_dim
    kind = rng.randrange(8)
    if kind == 0:
        return random_relation(rng, cfg)
    if kind == 1:
        return random_sub_idempotent(rng, cfg)
    if kind == 2:
        return random_super_idempotent(rng, cfg)
    if kind == 3:
        return random_idempotent(rng, cfg)
    if kind == 4:
        return random_semi_projection(rng, cfg)
    if kind == 5:
        return random_operator(rng, cfg)
    if kind == 6:
        return LinearRelation.product_space(
            random_subspace(rng, cfg), random_subspace(rng, cfg)
        )
    return random_relation(rng, cfg, n, n)


def random_subrelation(rng, cfg, t: LinearRelation) -> LinearRelation:
    """Span of random integer combinations of t's generators."""
    rows = t.graph._rows
    k = rng.randint(0, len(rows))
    width = t.dim_in + t.dim_out
    coeffs = []
    for _ in range(k):
        re, im = [], []
        for _ in rows:
            re.append(rng.randint(-2, 2))
            im.append(rng.randint(-2, 2) if cfg.complex_enabled else 0)
        coeffs.append((1, re, im))
    combos = _combine_rows(coeffs, [(re, im) for _, re, im in rows], width)
    return LinearRelation(
        t.dim_in, t.dim_out, Subspace.from_int_rows(combos, width)
    )


# -- check registry ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    name: str
    fn: Callable
    claims: tuple[str, ...]
    scale: float = 1.0
    angle: bool = False

    def trial_count(self, trials: int) -> int:
        if trials == 0:
            return 0
        return max(1, int(trials * self.scale))


CHECKS: dict[str, CheckSpec] = {}


def check(name: str, claims: Iterable[str], scale: float = 1.0, angle: bool = False):
    def deco(fn):
        if name in CHECKS:
            raise ValueError(f"duplicate check {name}")
        CHECKS[name] = CheckSpec(name, fn, tuple(claims), scale, angle)
        return fn

    return deco


def _doc(value):
    if isinstance(value, (Subspace, LinearRelation, IdempotentTriple, RangeTriple)):
        return document_dict(wrap(value))
    if isinstance(value, (list, tuple)):
        return [_doc(v) for v in value]
    return value


def ce(detail: str, **inputs) -> dict:
    """Structured counterexample: what failed plus the inputs, verbatim."""
    return {
        "detail": detail,
        "inputs": {k: _doc(v) for k, v in inputs.items()},
    }


# -- report -------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    failures: int
    counterexample: dict | None = None

    def json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    config: GenConfig
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "passed", all(c.failures == 0 for c in self.checks)
        )

    def json_dict(self) -> dict:
        return {
            "checks": [c.json_dict() for c in self.checks],
            "pass": self.passed,
            "config": self.config.json_dict(),
            "coverage": coverage_table(),
        }


def verify_suite(
    cfg: GenConfig, names: Iterable[str] | None = None
) -> VerificationReport:
    """Run the selected checks (all by default) and assemble the report.

    Counterexamples are data; only internal invariant breaches escape as
    exceptions, always an :class:`InternalCheckError` whose context names
    the check and the trial (any other exception a check raises is wrapped
    in one).
    """
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise PreconditionError(f"unknown checks: {', '.join(unknown)}")
    # Not a speed-up (without it the run time is the same).  It keeps the
    # work counts stable: interned values held only by the _perp/_inverse/
    # _one_minus reference cycles serve as a cache until the cyclic collector
    # frees them, so the collector's schedule changes how many rref calls a
    # run makes, e.g. with or without a tracer wrapped around the layers.
    old_threshold = gc.get_threshold()
    gc.set_threshold(200000, 100, 100)
    try:
        results = []
        for name in selected:
            spec = CHECKS[name]
            count = spec.trial_count(cfg.trials)
            failures = 0
            first = None
            for index in range(count):
                rng = trial_rng(cfg.seed, name, index)
                try:
                    outcome = spec.fn(rng, cfg)
                except (PreconditionError, DimensionError) as exc:
                    outcome = {"detail": f"unexpected error: {exc.message}"}
                except InternalCheckError as exc:
                    exc.context.update(check=name, trial=index)
                    raise
                except Exception as exc:
                    raise InternalCheckError(
                        f"check raised {type(exc).__name__}: {exc}",
                        check=name,
                        trial=index,
                    ) from exc
                if outcome is not None:
                    failures += 1
                    if first is None:
                        first = {"trial": index, **outcome}
            results.append(CheckResult(name, count, failures, first))
    finally:
        gc.set_threshold(*old_threshold)
    return VerificationReport(tuple(results), cfg)


# -- claims ledger ---------------------------------------------------------------

# Every tracked statement maps to the checks exercising it, or carries the
# reason it cannot manifest in finite dimension.  An entry with an empty
# check list and no exclusion is a build error (enforced in the test suite).

CLAIMS: dict[str, str] = {
    "relation-equality-criterion": "S = T iff S <= T with dom T <= dom S and mul T <= mul S",
    "complement-membership": "(u,v) in I-T iff (u,u-v) in T, and its kernel/range consequences",
    "inverse-product-forms": "T^-1 T and T T^-1 equal the identity on dom/ran plus the kernel/mul block",
    "adjoint-part-complements": "mul T* = (dom T)-perp, ker T* = (ran T)-perp, and the dual pair",
    "double-adjoint": "T** = T (closure is the identity here)",
    "adjoint-reverses-products": "T* S* is contained in (S T)*",
    "adjoint-of-graph-sum": "(T hat-plus S)* = T* meet S*",
    "adjoint-of-pointwise-sum": "T* + S* is contained in (T + S)*",
    "adjoint-pair-recognition": "A <= B* with complementary kernels/ranges forces A = B*, B = A*",
    "subspace-demorgan": "(S1+S2)-perp = S1-perp meet S2-perp and the dual identity",
    "semi-projection-form": "E is a semi-projection iff E = P_{ran E, ker E}",
    "canonical-sandwich": "the kernel-style form sits below E, the range-style form above",
    "restricted-form-parts": "parts of P_{M,N} meet (S x H) as lattice expressions",
    "augmented-form-parts": "parts of P_{M,N} hat-plus ({0} x S) as lattice expressions",
    "restricted-form-algebra": "I-R and R^-1 of the restricted form are restricted forms",
    "augmented-form-algebra": "I-T and T^-1 of the augmented form are augmented forms",
    "sub-idempotent-characterizations": "E o E <= E iff the restricted-form/kernel criteria hold",
    "super-idempotent-characterizations": "E <= E o E iff the augmented-form/range criteria hold",
    "one-sided-closure-ops": "sub/super survive I-E and inversion",
    "one-sided-to-idempotent": "one-sidedness plus the complementary part identity gives idempotency",
    "square-closed-forms": "E o E equals its closed form exactly when E is one-sided",
    "square-part-equalities": "squaring preserves kernels/mul of subs and ranges/dom of supers",
    "square-preserves-sidedness": "the square of a one-sided relation is one-sided and idempotent",
    "square-characterization": "part equalities plus a one-sided square characterize sidedness",
    "strictness-witnesses": "strictly-sub and strictly-super instances exist in every batch",
    "idempotent-closure-ops": "idempotency survives I-E and inversion",
    "idempotent-canonical-forms": "an idempotent equals both of its canonical forms",
    "idempotent-part-identities": "dom/ran/ker/mul of an idempotent decompose through the triple",
    "idempotent-set-parameterizations": "both three-subspace families parameterize exactly the idempotents",
    "identity-restriction-criterion": "idempotency iff dom E <= ran E + ker E and the diagonal of ran-meet-dom sits inside E",
    "smallest-idempotent-above": "the minimal idempotent dominating a triple, by construction and sampling",
    "largest-idempotent-below": "the maximal idempotent within range/domain bounds, both constructions equal",
    "kernel-triple-condition": "kernel triples realize exactly the IC triples, uniquely",
    "range-triple-condition": "range triples realize exactly the range-condition triples, uniquely",
    "triple-conversion": "kernel and range triples convert to each other and round-trip",
    "ic-recipes": "pairwise intersections, transversal triples, and part triples satisfy the IC",
    "triple-inverse-complement": "inverting or complementing a triple idempotent permutes/swaps the triple",
    "semi-projection-adjoint": "P_{M,N}* = P_{N-perp, M-perp}",
    "augmented-form-adjoint": "(P_{M,N} hat-plus {0} x S)* = restricted form of the orthocomplements",
    "idempotent-adjoint-triple": "adjoints of idempotents are idempotent with the orthocomplement triple",
    "angle-closed-sum": "the Friedrichs cosine stays strictly below 1",
    "angle-monotonicity": "enlarging one side without changing the meet cannot shrink the cosine",
    "angle-dixmier-detects-intersection": "Dixmier cosine reaches 1 exactly on nontrivial intersections",
    "angle-coincide-trivial-meet": "both cosines agree when the intersection is trivial",
    "angle-range-symmetry": "cosines are symmetric and live in [0,1]",
    "angle-sampled-sup-bound": "sampled unit-vector products never exceed the computed cosine",
}

EXCLUDED_CLAIMS: dict[str, str] = {
    "closure-closability-distinctions": "closure is the identity map on finite-dimensional subspaces",
    "closed-range-transfer": "every subspace is closed here, so the transfer is vacuous",
    "graph-sum-closedness-transfer": "graph sums are always closed in finite dimension",
    "closedness-characterizations": "every relation in scope is closed; the hypotheses cannot fail",
    "conditional-adjoint-closure-formulas": "the conditions quantify over non-closed sums, impossible here",
    "non-closed-sum-counterexamples": "the counterexamples require non-closed sums of closed subspaces",
    "operator-range-subtleties": "every subspace is an operator range in finite dimension",
}


def coverage_table() -> list[dict]:
    rows = []
    for claim, statement in CLAIMS.items():
        names = sorted(
            name for name, spec in CHECKS.items() if claim in spec.claims
        )
        rows.append({"claim": claim, "statement": statement, "checks": names})
    for claim, reason in EXCLUDED_CLAIMS.items():
        rows.append(
            {"claim": claim, "statement": reason, "checks": "out-of-scope"}
        )
    return rows


# Register the check implementations on import.
from . import checks as _checks  # noqa: E402,F401
