"""Fault ledger: named semantic faults that the fuzz suite must see.

Each entry patches one production function, wherever the package binds it,
with a faulty version, and runs every check alone at dim 4 and seed 1 on a
fresh memo (mutation testing after DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978).  A fault is killed by a
check when that check fails a trial or raises.  Each entry states its trial
count and the exact set of checks that kill it, so a change to a check's
power, or to the values the production routes compute, moves the ledger.

A fault is a wrapper around the original function or an edit of its source;
an edit names text that must occur in the source, so the ledger cannot go
stale silently.  ``test_kill_matrix`` prints the matrix (``pytest -s``).
"""

import __future__
import functools
import importlib
import inspect
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

from relcalc import InternalCheckError
from relcalc.verifier import CHECKS, GenConfig, verify_suite


def _edit(*replacements):
    """A fault that rewrites the function's source: each ``(old, new)``
    pair replaces text that occurs exactly once.  The result is compiled in
    the function's own module, decorators included."""

    def make(original):
        fn = inspect.unwrap(original)
        source = textwrap.dedent(inspect.getsource(fn))
        for old, new in replacements:
            assert source.count(old) == 1, f"{fn.__qualname__} lacks {old!r}"
            source = source.replace(old, new)
        code = compile(
            source,
            inspect.getsourcefile(fn),
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        namespace = {}
        exec(code, fn.__globals__, namespace)
        return namespace[fn.__name__]

    return make


def _swap_square_operands(compose):
    def swapped(self, other):
        if self.dim_in == self.dim_out == other.dim_in == other.dim_out:
            self, other = other, self
        return compose(self, other)

    return swapped


def _swap_when_range_is_one_larger(semi_projection):
    def swapped(m, n):
        return semi_projection(n, m) if m.dim == n.dim + 1 else semi_projection(m, n)

    return swapped


def _smaller_when_first_pivots_agree(intersect):
    def shortcut(self, other):
        if self._pivots and other._pivots and self._pivots[0] == other._pivots[0]:
            return self if self.dim <= other.dim else other
        return intersect(self, other)

    return shortcut


def _adjoint_without_the_sign_flip(adjoint):
    # perp of the inverse's graph is the complement of T^-1, not of -T^-1:
    # it meets <g, x> = -<f, y> in place of <g, x> = <f, y>.
    from relcalc.relations import LinearRelation

    def unflipped(t):
        return LinearRelation(t.dim_out, t.dim_in, t.inverse().graph.perp())

    return unflipped


class Fault(NamedTuple):
    target: str  # "module:qualname" of the production function
    make: Callable  # the original function -> the faulty one
    trials: int
    killers: str  # the checks that see the fault, in suite order


LEDGER = {
    # With conjugation gone, perp and so the adjoint, which is perp of the
    # rows of -T^-1, follow the bilinear form consistently, so every lattice
    # and adjoint identity still holds; only the inner product itself,
    # written out in the checks, tells them apart.
    "conjugate_row_returns_its_row": Fault(
        "relcalc._rowops:conjugate_row",
        lambda conjugate_row: lambda row: row,
        10,
        "adjoint_parts subspace_demorgan angle_range_symmetry",
    ),
    # "T*S* <= (ST)*" is symmetric under the swap; only inverse_products
    # pins which order compose means.
    "compose_swaps_square_operands": Fault(
        "relcalc.relations:LinearRelation.compose",
        _swap_square_operands,
        10,
        "inverse_products",
    ),
    "build_pmns_returns_sub_form": Fault(
        "relcalc.idempotents:build_pmns",
        _edit(("return super_form(*IdempotentTriple", "return sub_form(*IdempotentTriple")),
        10,
        "triple_conversion",
    ),
    "one_minus_is_t_minus_i": Fault(
        "relcalc.relations:LinearRelation.one_minus",
        _edit(
            ("tuple(map(sub, re, re[n:]))", "tuple(map(sub, re[n:], re))"),
            ("tuple(map(sub, im, im[n:]))", "tuple(map(sub, im[n:], im))"),
        ),
        10,
        """complement_membership restricted_form_algebra
        one_sided_closure_ops triple_inverse_complement""",
    ),
    "semi_projection_swaps_when_dim_m_is_dim_n_plus_1": Fault(
        "relcalc.idempotents:semi_projection",
        _swap_when_range_is_one_larger,
        10,
        """inverse_products restricted_form_parts augmented_form_parts
        restricted_form_algebra augmented_form_algebra
        sub_characterizations triple_inverse_complement""",
    ),
    "intersect_returns_the_smaller_when_first_pivots_agree": Fault(
        "relcalc.subspaces:Subspace.intersect",
        _smaller_when_first_pivots_agree,
        10,
        """adjoint_hat_sum subspace_demorgan
        semi_projection_characterization restricted_form_parts
        augmented_form_parts restricted_form_algebra
        one_sided_to_idempotent square_closed_forms
        square_preserves_sidedness square_characterization
        strictness_witnesses idempotent_canonical_forms
        idempotent_part_identities range_triple_condition
        triple_conversion triple_inverse_complement
        augmented_form_adjoint idempotent_adjoint_triple
        angle_range_symmetry angle_closed_sum""",
    ),
    "sum_keeps_only_the_first_residual": Fault(
        "relcalc.subspaces:_sum",
        _edit(("list(big._rows) + rest,", "list(big._rows) + rest[:1],")),
        10,
        """inverse_products subspace_demorgan
        semi_projection_characterization canonical_sandwich
        restricted_form_parts augmented_form_parts
        restricted_form_algebra augmented_form_algebra
        sub_characterizations super_characterizations
        square_closed_forms square_preserves_sidedness
        idempotent_canonical_forms idempotent_set_parameterizations
        smallest_idempotent_above kernel_triple_condition
        range_triple_condition triple_conversion
        triple_inverse_complement semi_projection_adjoint
        augmented_form_adjoint""",
    ),
    "inverse_drops_the_multivalued_rows": Fault(
        "relcalc.relations:LinearRelation.inverse",
        _edit(
            (
                "for den, re, im in self.graph._rows\n",
                "for den, re, im in self.graph._rows\n"
                "if any(re[:n]) or any(im[:n])\n",
            )
        ),
        10,
        """complement_membership inverse_products adjoint_parts
        adjoint_product_containment adjoint_hat_sum
        adjoint_pointwise_sum adjoint_pair_recognition
        semi_projection_characterization canonical_sandwich
        restricted_form_parts augmented_form_parts
        augmented_form_algebra sub_characterizations
        super_characterizations one_sided_to_idempotent
        square_closed_forms square_part_equalities
        square_preserves_sidedness idempotent_canonical_forms
        idempotent_part_identities idempotent_set_parameterizations
        range_triple_condition triple_conversion
        triple_inverse_complement semi_projection_adjoint
        augmented_form_adjoint idempotent_adjoint_triple""",
    ),
    "read_off_drops_its_last_stacked_row": Fault(
        "relcalc.subspaces:_read_off",
        _edit(("_rowops.rref(rows, k + width)", "_rowops.rref(rows[:-1], k + width)")),
        10,
        """complement_membership inverse_products adjoint_hat_sum
        subspace_demorgan semi_projection_characterization
        canonical_sandwich restricted_form_parts augmented_form_parts
        restricted_form_algebra sub_characterizations
        super_characterizations one_sided_to_idempotent
        square_closed_forms square_part_equalities
        square_preserves_sidedness square_characterization
        strictness_witnesses idempotent_canonical_forms
        idempotent_part_identities idempotent_set_parameterizations
        identity_restriction_criterion smallest_idempotent_above
        kernel_triple_condition range_triple_condition
        triple_conversion augmented_form_adjoint
        idempotent_adjoint_triple angle_closed_sum
        angle_dixmier_detects_intersection""",
    ),
    # A real pivot row over den > 1 must scale the imaginary part of a
    # complex target whose pivot-column entry is real.  One check sees it;
    # tests/test_rowops.py::test_rref_matches_reference sees it too.
    "eliminate_leaves_vim_unscaled": Fault(
        "relcalc._rowops:_eliminate",
        _edit(("[den * y for y in vim]", "list(vim)")),
        10,
        "adjoint_hat_sum",
    ),
    "adjoint_without_the_sign_flip": Fault(
        "relcalc.relations:LinearRelation.adjoint",
        _adjoint_without_the_sign_flip,
        10,
        """adjoint_parts adjoint_product_containment
        semi_projection_adjoint augmented_form_adjoint
        idempotent_adjoint_triple""",
    ),
    # With no Jacobi sweep the largest row norm of the cross-Gram matrix
    # stands in for its largest singular value, which it only bounds below.
    "largest_singular_value_is_a_row_norm": Fault(
        "relcalc.angles:_largest_singular_value",
        _edit(("for _ in range(_JACOBI_SWEEPS):", "for _ in range(0):")),
        10,
        "angle_range_symmetry angle_dixmier_detects_intersection",
    ),
    # A bilinear vdot makes <u, u> of a complex unit row differ from 1, so
    # the Gram check raises in every angle check, the three that see no
    # other fault included.
    "vdot_drops_the_conjugate": Fault(
        "relcalc.angles:vdot",
        _edit(("map(complex.conjugate, u)", "u")),
        10,
        """angle_range_symmetry angle_closed_sum
        angle_dixmier_detects_intersection angle_coincide_trivial_meet
        angle_monotonicity angle_sampled_sup_bound""",
    ),
    "relative_complement_returns_self": Fault(
        "relcalc.subspaces:Subspace.relative_complement",
        _edit(("return self.intersect(meet.perp())", "return self")),
        10,
        "subspace_demorgan angle_closed_sum",
    ),
    # classify decides each flag once, from E o E and leq; these pin that
    # route now that no second route inside classify cross-checks it.
    "classify_tests_e_below_its_square_for_sub": Fault(
        "relcalc.idempotents:classify",
        _edit(("sub_def = e2.leq(e)", "sub_def = e.leq(e2)")),
        10,
        """super_characterizations one_sided_to_idempotent
        square_closed_forms square_preserves_sidedness
        square_characterization strictness_witnesses
        identity_restriction_criterion""",
    ),
    "classify_calls_one_side_idempotent": Fault(
        "relcalc.idempotents:classify",
        _edit(
            (
                "is_idempotent = sub_def and super_def",
                "is_idempotent = sub_def or super_def",
            )
        ),
        10,
        "one_sided_to_idempotent identity_restriction_criterion",
    ),
    "leq_holds_when_domains_agree": Fault(
        "relcalc.relations:LinearRelation.leq",
        _edit(
            (
                "return other.graph.contains(self.graph)",
                "return self.dom == other.dom or other.graph.contains(self.graph)",
            )
        ),
        10,
        """semi_projection_characterization super_characterizations
        one_sided_to_idempotent square_closed_forms
        square_preserves_sidedness strictness_witnesses
        identity_restriction_criterion""",
    ),
    # Thin spot: with S meet T left in s this is the Dixmier cosine, which
    # passes every other angle check; only angle_closed_sum asks that it
    # stay below 1 when S and T meet.  Removing S meet T from t instead of s
    # is an equivalent fault, which no check can see, so it stays out: for
    # x in S and y orthogonal to S meet T, <x, y> = <x - P x, y> with P the
    # projection onto S meet T, so c0(S, T - (S meet T)) = c(S, T).
    "friedrichs_cos_keeps_the_intersection": Fault(
        "relcalc.angles:friedrichs_cos",
        _edit(
            (
                "dixmier_cos(s.relative_complement(t), t, tol)",
                "dixmier_cos(s, t, tol)",
            )
        ),
        10,
        "angle_closed_sum",
    ),
    # square is one composition, with no assertion inside it; this pins that
    # route, as the classify faults above pin classify's.
    "square_returns_e": Fault(
        "relcalc.idempotents:square",
        _edit(("return e.compose(e)", "return e")),
        10,
        """semi_projection_characterization super_characterizations
        one_sided_to_idempotent square_closed_forms
        square_preserves_sidedness strictness_witnesses
        identity_restriction_criterion""",
    ),
    # Thin spot: E's own triple stands in for its adjoint's; only
    # idempotent_adjoint_triple compares the triple with the orthocomplement
    # form (tier-1 criterion-4 does too).
    "adjoint_idempotent_returns_the_triple_of_e": Fault(
        "relcalc.idempotents:adjoint_idempotent",
        _edit(
            (
                "IdempotentTriple._make((adj.one_minus().ker, adj.ker, adj.mul))",
                "IdempotentTriple._make((e.one_minus().ker, e.ker, e.mul))",
            )
        ),
        10,
        "idempotent_adjoint_triple",
    ),
    # Thin spot: M meet S stands in for (M+N) meet S, in ic_holds and in
    # the constructor alike; only kernel_triple_condition compares ic_holds
    # with a built idempotent.
    "ic_sides_drop_n_from_the_sum": Fault(
        "relcalc.idempotents:IdempotentTriple._sides",
        _edit(("return m.sum_with(n).intersect(s)", "return m.intersect(s)")),
        10,
        "kernel_triple_condition",
    ),
    # Without the N x {0} block P_{M,N} is I_M, whose kernel is zero.
    "semi_projection_drops_the_kernel_block": Fault(
        "relcalc.idempotents:semi_projection",
        _edit(
            (
                ".hat_sum(\n"
                "        LinearRelation.product_space(n, Subspace.zero(m.ambient_dim))\n"
                "    )",
                "",
            )
        ),
        10,
        """inverse_products semi_projection_characterization
        canonical_sandwich restricted_form_parts augmented_form_parts
        restricted_form_algebra augmented_form_algebra
        sub_characterizations super_characterizations
        square_closed_forms square_preserves_sidedness
        strictness_witnesses idempotent_canonical_forms
        idempotent_set_parameterizations smallest_idempotent_above
        range_triple_condition triple_conversion
        triple_inverse_complement semi_projection_adjoint
        augmented_form_adjoint""",
    ),
    # Without the S x H restriction sub_form is P_{M,N} on all of M + N;
    # largest_idempotent_below sees no other fault in the ledger.
    "sub_form_drops_the_domain_restriction": Fault(
        "relcalc.idempotents:sub_form",
        _edit(
            (
                ".meet(\n"
                "        LinearRelation.product_space(s, Subspace.full(ambient))\n"
                "    )",
                "",
            )
        ),
        10,
        """restricted_form_parts restricted_form_algebra
        sub_characterizations square_closed_forms
        square_preserves_sidedness strictness_witnesses
        idempotent_set_parameterizations largest_idempotent_below
        range_triple_condition triple_conversion augmented_form_adjoint""",
    ),
}


def _install(monkeypatch, target, make):
    """Patch the faulty version over the original: on its class for a
    method, else on every ``relcalc`` module that binds the original."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    mutant = make(original)
    if path:
        monkeypatch.setattr(owner, name, mutant)
        return
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "relcalc":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)


@functools.lru_cache(maxsize=None)
def kills(name):
    """The checks that see the fault, each mapped to ``"fail"`` or
    ``"raise"``."""
    fault = LEDGER[name]
    cfg = GenConfig(ambient_dim=4, trials=fault.trials, seed=1)
    seen = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _install(monkeypatch, fault.target, fault.make)
        monkeypatch.setattr("relcalc.subspaces._memo", {})
        for check in CHECKS:
            try:
                if not verify_suite(cfg, [check])["pass"]:
                    seen[check] = "fail"
            except InternalCheckError:
                seen[check] = "raise"
    return seen


@pytest.mark.parametrize("name", list(LEDGER))
def test_ledger_fault_fails_the_suite(name):
    assert list(kills(name)) == LEDGER[name].killers.split()


def test_kill_matrix():
    """Print which checks see which fault: x fails a trial, ! raises."""
    names = list(LEDGER)
    width = max(map(len, CHECKS))
    lines = [" " * width + "  " + " ".join(f"{i:>2}" for i in range(len(names)))]
    for check in CHECKS:
        marks = [{"fail": " x", "raise": " !"}.get(kills(n).get(check), " .") for n in names]
        lines.append(f"{check:<{width}}  " + " ".join(marks))
    lines += [f"{i:>2}: {n} (trials {LEDGER[n].trials})" for i, n in enumerate(names)]
    print("\n".join(lines))
    assert all(kills(n) for n in names)
