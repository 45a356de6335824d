"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS line on success; failures surface as ordinary
pytest assertions.  Exact criteria compare canonical forms bit-for-bit;
angle criteria use the stated float tolerances.
"""

import hashlib
import json
import time

from relcalc import (
    GaussianRational,
    IdempotentTriple,
    LinearRelation,
    Subspace,
    adjoint_idempotent,
    build_from_range_triple,
    build_pmns,
    classify,
    kernel_triple,
    maximal_idempotent,
    minimal_idempotent,
    range_to_kernel,
    range_triple,
    sub_form,
    super_form,
    triple_convert,
)
from relcalc.angles import dixmier_cos, friedrichs_cos
from relcalc.cli import main
from relcalc.documents import parse_document, serialize_document, wrap
from relcalc.verifier import (
    GenConfig,
    random_ic_triple,
    random_idempotent,
    random_relation,
    random_sub_idempotent,
    random_subspace,
    random_super_idempotent,
    random_square_pool,
    trial_rng,
    verify_suite,
)


CRITERION_1_DIGEST = "81dfcfa5566a553cc81595cf751184025d27d22940241c5234c77d4aae7d7675"


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_exact_identity_suite(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    started = time.perf_counter()
    code = main(["fuzz", "--dim", "4", "--trials", "500", "--seed", "42", "-o", out])
    elapsed = time.perf_counter() - started
    assert code == 0
    with open(out, "rb") as f:
        data = f.read()
    # The report's bytes for this seed, pinned like tests/test_verifier.py's
    # REPORT_DIGESTS.
    assert hashlib.sha256(data).hexdigest() == CRITERION_1_DIGEST
    doc = json.loads(data)
    assert doc["pass"] is True
    failures = {c["name"]: c["failures"] for c in doc["checks"]}
    assert all(v == 0 for v in failures.values()), failures
    # the exact clusters named by the acceptance list must all be present
    for name in (
        "relation_equality_criterion",
        "complement_membership",
        "canonical_sandwich",
        "restricted_form_parts",
        "augmented_form_parts",
        "restricted_form_algebra",
        "augmented_form_algebra",
        "inverse_products",
        "adjoint_product_containment",
        "adjoint_hat_sum",
        "adjoint_pointwise_sum",
        "sub_characterizations",
        "super_characterizations",
        "one_sided_to_idempotent",
        "square_closed_forms",
        "square_characterization",
        "one_sided_closure_ops",
        "idempotent_canonical_forms",
        "idempotent_part_identities",
        "identity_restriction_criterion",
        "kernel_triple_condition",
        "range_triple_condition",
        "triple_conversion",
        "triple_inverse_complement",
        "semi_projection_adjoint",
        "augmented_form_adjoint",
        "idempotent_adjoint_triple",
        "adjoint_pair_recognition",
    ):
        assert failures[name] == 0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    with capsys.disabled():
        report(
            "criterion-1",
            f"500-trial exact suite at dim 4, 0 failures in {elapsed:.1f}s",
        )


def test_criterion_2_two_sided_equivalence(capsys):
    cfg = GenConfig(ambient_dim=4, trials=1, seed=4242)
    checked = 0
    for side in ("canonical", "definitional"):
        for i in range(200):
            rng = trial_rng(4242, f"two-sided-{side}", i)
            if side == "canonical":
                which = i % 3
                if which == 0:
                    e = random_sub_idempotent(rng, cfg)
                    assert classify(e).is_sub
                elif which == 1:
                    e = random_super_idempotent(rng, cfg)
                    assert classify(e).is_super
                else:
                    e = random_idempotent(rng, cfg)
                    assert classify(e).is_idempotent
            else:
                e = random_square_pool(rng, cfg)
            # classify decides from the definition alone (E o E against E);
            # the test states the part criteria and the canonical-form
            # routes against its flags.
            cls = classify(e)
            kernel_crit = e.one_minus().ker == e.ran.intersect(e.dom)
            assert kernel_crit == cls.is_sub
            range_crit = e.one_minus().ran == e.ker.sum_with(e.mul)
            assert range_crit == cls.is_super
            form_sub = e == sub_form(e.ran, e.one_minus().ran, e.dom)
            assert form_sub == cls.is_sub
            form_super = e == super_form(e.one_minus().ker, e.ker, e.mul)
            assert form_super == cls.is_super
            assert cls.is_idempotent == (cls.is_sub and cls.is_super)
            checked += 1
    with capsys.disabled():
        report("criterion-2", f"{checked} instances classified identically from both sides")


def test_criterion_3_triple_round_trips(capsys):
    count = 0
    for i in range(500):
        rng = trial_rng(33, "triple-roundtrip", i)
        dim = 2 + (i % 5)
        cfg = GenConfig(ambient_dim=dim, trials=1, seed=33)
        e = random_idempotent(rng, cfg)
        t = kernel_triple(e)
        rebuilt = build_pmns(t.m, t.n, t.s)
        assert rebuilt == e
        assert kernel_triple(rebuilt) == t
        rt = range_triple(e)
        rebuilt = build_from_range_triple(rt.x, rt.y, rt.z)
        assert rebuilt == e
        assert range_triple(rebuilt) == rt
        assert range_to_kernel(triple_convert(t)) == t
        assert triple_convert(range_to_kernel(rt)) == rt
        count += 1
    with capsys.disabled():
        report("criterion-3", f"{count} kernel/range triple round trips, exact")


def test_criterion_4_adjoint_theorem(capsys):
    count = 0
    for i in range(1000):
        rng = trial_rng(55, "adjoint-idempotent", i)
        dim = 1 + (i % 6)
        cfg = GenConfig(ambient_dim=dim, trials=1, seed=55, complex_enabled=True)
        e = random_idempotent(rng, cfg)
        t = kernel_triple(e)
        adj, got = adjoint_idempotent(e)
        assert classify(adj).is_idempotent
        mp, np_, sp = t.m.perp(), t.n.perp(), t.s.perp()
        expected = IdempotentTriple(
            np_.intersect(sp), mp.intersect(sp), mp.intersect(np_)
        )
        assert got == expected
        count += 1
    with capsys.disabled():
        report(
            "criterion-4",
            f"{count} complex idempotents: adjoint idempotent with the "
            "orthocomplement triple, exact",
        )


def test_criterion_5_strictness_witnesses(capsys):
    seen = []
    for dim in range(2, 7):
        e1 = [0] * dim
        e2 = [0] * dim
        e1[0] = 1
        e2[1] = 1
        diag = [1, 1] + [0] * (dim - 2)
        m = Subspace.span([e1], dim)
        n = Subspace.span([e2], dim)
        d = Subspace.span([diag], dim)
        strict_sub = sub_form(m, n, d)
        cls = classify(strict_sub)
        assert cls.is_sub and not cls.is_super
        strict_super = super_form(m, d, n)
        cls = classify(strict_super)
        assert cls.is_super and not cls.is_sub
        seen.append(dim)
    # and the fuzz batch produces them through its own check
    cfg = GenConfig(ambient_dim=4, trials=5, seed=42)
    rep = verify_suite(cfg, ["strictness_witnesses"])
    assert rep["pass"]
    with capsys.disabled():
        report(
            "criterion-5",
            f"strictly-sub and strictly-super witnesses classified in dims {seen}",
        )


def test_criterion_6_composition_oracle(capsys):
    count = 0
    for i in range(500):
        rng = trial_rng(66, "composition-oracle", i)
        dim = 1 + (i % 4)
        cfg = GenConfig(ambient_dim=dim, trials=1, seed=66)
        t = random_relation(rng, cfg, dim, 1 + ((i // 4) % dim))
        inv = t.inverse()
        lhs = inv.compose(t)
        rhs = LinearRelation.identity_on(t.dom).hat_sum(
            LinearRelation.product_space(Subspace.zero(t.dim_in), t.ker)
        )
        assert lhs == rhs
        lhs = t.compose(inv)
        rhs = LinearRelation.identity_on(t.ran).hat_sum(
            LinearRelation.product_space(Subspace.zero(t.dim_out), t.mul)
        )
        assert lhs == rhs
        count += 1
    with capsys.disabled():
        report("criterion-6", f"{count} relations: elimination compose matches closed forms")


def test_criterion_7_angles(capsys):
    started = time.perf_counter()
    for i in range(200):
        rng = trial_rng(77, "angle-pairs", i)
        dim = 1 + (i % 6)
        cfg = GenConfig(ambient_dim=dim, trials=1, seed=77)
        s = random_subspace(rng, cfg)
        t = random_subspace(rng, cfg)
        c0 = dixmier_cos(s, t)
        c = friedrichs_cos(s, t)
        nontrivial = not s.intersect(t).is_zero()
        assert (abs(c0 - 1.0) < 1e-6) == nontrivial
        assert c < 1.0 - 1e-9
    for i in range(200):
        rng = trial_rng(78, "angle-nested", i)
        dim = 2 + (i % 5)
        cfg = GenConfig(ambient_dim=dim, trials=1, seed=78)
        s = random_subspace(rng, cfg)
        w = random_subspace(rng, cfg)
        meet = w.intersect(s)
        pool = w.relative_complement(s).basis_vectors()
        keep = [v for v in pool if rng.randrange(2)]
        t = meet.sum_with(Subspace.span(keep, dim))
        assert t.intersect(s) == meet
        assert friedrichs_cos(t, s) <= friedrichs_cos(w, s) + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"angle block took {elapsed:.1f}s"
    with capsys.disabled():
        report(
            "criterion-7",
            f"200 pairs + 200 nested triples within tolerance in {elapsed:.1f}s",
        )


def test_criterion_8_extremality_sampling(capsys):
    cfg = GenConfig(ambient_dim=4, trials=1, seed=88)
    for i in range(100):
        rng = trial_rng(88, "extremal-min", i)
        m = random_subspace(rng, cfg)
        n = random_subspace(rng, cfg)
        s = random_subspace(rng, cfg)
        e0 = minimal_idempotent(m, n, s)
        for _ in range(100):
            bigger = minimal_idempotent(
                m.sum_with(random_subspace(rng, cfg)),
                n.sum_with(random_subspace(rng, cfg)),
                s.sum_with(random_subspace(rng, cfg)),
            )
            assert e0.leq(bigger)
    for i in range(100):
        rng = trial_rng(88, "extremal-max", i)
        x = random_subspace(rng, cfg)
        y = random_subspace(rng, cfg)
        z = random_subspace(rng, cfg)
        f0 = maximal_idempotent(x, y, z)
        for _ in range(100):
            smaller = maximal_idempotent(
                x.intersect(random_subspace(rng, cfg)),
                y.intersect(random_subspace(rng, cfg)),
                z.intersect(random_subspace(rng, cfg)),
            )
            assert smaller.leq(f0)
    with capsys.disabled():
        report(
            "criterion-8",
            "100 instances x 100 samples contained in both extremal directions",
        )


def test_criterion_9_format_stability(tmp_path, capsys):
    cfg = GenConfig(ambient_dim=3, trials=1, seed=99)
    count = 0
    for i in range(1000):
        rng = trial_rng(99, "format-stability", i)
        kind = i % 3
        if kind == 0:
            obj = random_subspace(rng, cfg)
        elif kind == 1:
            obj = random_relation(rng, cfg, 2 + (i % 2), 2)
        else:
            obj = random_ic_triple(rng, cfg)
        text = serialize_document(wrap(obj))
        env = parse_document(text)
        assert env.payload == obj
        assert serialize_document(env) == text
        count += 1
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    args = ["fuzz", "--dim", "3", "--trials", "5", "--seed", "2718"]
    assert main(args + ["-o", out1]) == 0
    assert main(args + ["-o", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    count += 2
    with capsys.disabled():
        report(
            "criterion-9",
            f"{count} documents byte-stable, fixed-seed reports identical",
        )
