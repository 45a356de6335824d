"""The named checks behind :func:`relcalc.verifier.verify_suite`.

Each check draws fresh random instances, tests one cluster of identities
exactly (canonical-form equality), and returns ``None`` on success or a
counterexample dict.  Angle checks compare floats against the configured
tolerance instead.
"""

from __future__ import annotations

from .angles import (
    dixmier_cos,
    friedrichs_cos,
    orthonormal_basis_f64,
    vdot,
    vector_norm,
)
from .errors import ICViolationError
from .idempotents import (
    IdempotentTriple,
    build_from_range_triple,
    build_pmns,
    classify,
    ic_holds,
    kernel_triple,
    maximal_idempotent,
    minimal_idempotent,
    range_condition_holds,
    range_to_kernel,
    range_triple,
    semi_projection,
    square,
    sub_form,
    super_form,
    triple_convert,
)
from .oracles import maximal_idempotent_hat_form
from .relations import LinearRelation
from .scalars import GaussianRational
from .subspaces import Subspace
from .verifier import (
    ce,
    check,
    random_ic_triple,
    random_idempotent,
    random_relation,
    random_semi_projection,
    random_sub_idempotent,
    random_subrelation,
    random_subspace,
    random_super_idempotent,
    random_square_pool,
)


# -- section 2: the relation vocabulary --------------------------------------


@check("relation_equality_criterion", ["relation-equality-criterion"])
def check_relation_equality(rng, cfg):
    t = random_relation(rng, cfg, cfg.ambient_dim, rng.randint(1, cfg.ambient_dim))
    mode = rng.randrange(3)
    if mode == 0:
        s = t
    elif mode == 1:
        s = random_subrelation(rng, cfg, t)
    else:
        s = random_relation(rng, cfg, t.dim_in, t.dim_out)
    criterion = (
        s.leq(t) and s.dom.contains(t.dom) and s.mul.contains(t.mul)
    )
    if criterion != (s == t):
        return ce("equality criterion disagrees with equality", s=s, t=t)
    return None


@check("complement_membership", ["complement-membership"])
def check_complement_membership(rng, cfg):
    t = random_relation(rng, cfg)
    n = t.dim_in
    c = t.one_minus()

    def swapped(row):
        den, re, im = row
        nre = tuple(re[:n]) + tuple(re[k] - re[n + k] for k in range(n))
        nim = (
            None
            if im is None
            else tuple(im[:n]) + tuple(im[k] - im[n + k] for k in range(n))
        )
        return (den, nre, nim)

    if rng.randrange(2):
        for row in c.graph._rows:
            if not t.graph.contains_vector(swapped(row)):
                return ce("element of I-T fails the membership transform", t=t)
        for row in t.graph._rows:
            if not c.graph.contains_vector(swapped(row)):
                return ce("element of T fails the reverse membership transform", t=t)
        if c.one_minus() != t:
            return ce("I-(I-T) differs from T", t=t)
        return None
    if not t.ran.intersect(t.dom).contains(c.ker):
        return ce("ker(I-T) escapes ran T meet dom T", t=t)
    t2 = t.squared()
    if not t2.one_minus().ker.contains(c.ker):
        return ce("ker(I-T) escapes ker(I-T^2)", t=t)
    if not c.ran.contains(t2.one_minus().ran):
        return ce("ran(I-T^2) escapes ran(I-T)", t=t)
    return None


@check("inverse_products", ["inverse-product-forms"])
def check_inverse_products(rng, cfg):
    t = random_relation(rng, cfg, cfg.ambient_dim, rng.randint(1, cfg.ambient_dim))
    n, m = t.dim_in, t.dim_out
    inv = t.inverse()
    if inv.inverse() != t:
        return ce("double inversion changed the relation", t=t)
    if rng.randrange(2):
        lhs = inv.compose(t)
        closed = LinearRelation.identity_on(t.dom).hat_sum(
            LinearRelation.product_space(Subspace.zero(n), t.ker)
        )
        if lhs != closed:
            return ce("T^-1 T misses its closed form", t=t)
        if lhs != semi_projection(t.dom, t.ker):
            return ce("T^-1 T is not the dom/ker semi-projection", t=t)
        return None
    rhs = t.compose(inv)
    closed = LinearRelation.identity_on(t.ran).hat_sum(
        LinearRelation.product_space(Subspace.zero(m), t.mul)
    )
    if rhs != closed:
        return ce("T T^-1 misses its closed form", t=t)
    if rhs != semi_projection(t.ran, t.mul):
        return ce("T T^-1 is not the ran/mul semi-projection", t=t)
    return None


@check("adjoint_parts", ["adjoint-part-complements", "double-adjoint"])
def check_adjoint_parts(rng, cfg):
    t = random_relation(rng, cfg, cfg.ambient_dim, rng.randint(1, cfg.ambient_dim))
    a = t.adjoint()
    if a.mul != t.dom.perp():
        return ce("mul T* is not (dom T)-perp", t=t)
    if a.ker != t.ran.perp():
        return ce("ker T* is not (ran T)-perp", t=t)
    if a.ran != t.ker.perp():
        return ce("ran T* is not (ker T)-perp", t=t)
    if a.dom != t.mul.perp():
        return ce("dom T* is not (mul T)-perp", t=t)
    if a.adjoint() != t:
        return ce("T** differs from T", t=t)
    if t.closure() != t or a.closure() != a:
        return ce("closure moved a relation", t=t)
    return None


@check("adjoint_product_containment", ["adjoint-reverses-products"])
def check_adjoint_products(rng, cfg):
    n = cfg.ambient_dim
    e = rng.randint(1, n)
    m = rng.randint(1, n)
    t = random_relation(rng, cfg, n, e)
    s = random_relation(rng, cfg, e, m)
    lhs = t.adjoint().compose(s.adjoint())
    rhs = s.compose(t).adjoint()
    if not lhs.leq(rhs):
        return ce("T* S* escapes (S T)*", t=t, s=s)
    return None


@check("adjoint_hat_sum", ["adjoint-of-graph-sum"])
def check_adjoint_hat_sum(rng, cfg):
    t = random_relation(rng, cfg, cfg.ambient_dim, rng.randint(1, cfg.ambient_dim))
    s = random_relation(rng, cfg, t.dim_in, t.dim_out)
    if t.hat_sum(s).adjoint() != t.adjoint().meet(s.adjoint()):
        return ce("(T hat-plus S)* differs from T* meet S*", t=t, s=s)
    return None


@check("adjoint_pointwise_sum", ["adjoint-of-pointwise-sum"])
def check_adjoint_pointwise_sum(rng, cfg):
    t = random_relation(rng, cfg, cfg.ambient_dim, rng.randint(1, cfg.ambient_dim))
    s = random_relation(rng, cfg, t.dim_in, t.dim_out)
    if not t.adjoint().plus(s.adjoint()).leq(t.plus(s).adjoint()):
        return ce("T* + S* escapes (T+S)*", t=t, s=s)
    return None


@check("adjoint_pair_recognition", ["adjoint-pair-recognition"])
def check_adjoint_pair(rng, cfg):
    n = cfg.ambient_dim
    m = rng.randint(1, n)
    b = random_relation(rng, cfg, n, m)
    bstar = b.adjoint()
    a = bstar if rng.randrange(3) == 0 else random_subrelation(rng, cfg, bstar)
    full_m = Subspace.full(m)
    full_n = Subspace.full(n)
    hypotheses = (
        a.ker.sum_with(b.ran) == full_m and b.ker.sum_with(a.ran) == full_n
    )
    if hypotheses and (a != bstar or b != a.adjoint()):
        return ce("complementary pair did not collapse to the adjoint", a=a, b=b)
    return None


@check("subspace_demorgan", ["subspace-demorgan"])
def check_demorgan(rng, cfg):
    s1 = random_subspace(rng, cfg)
    s2 = random_subspace(rng, cfg)
    if s1.sum_with(s2).perp() != s1.perp().intersect(s2.perp()):
        return ce("(S1+S2)-perp mismatch", s1=s1, s2=s2)
    if s1.intersect(s2).perp() != s1.perp().sum_with(s2.perp()):
        return ce("(S1 meet S2)-perp mismatch", s1=s1, s2=s2)
    if s1.perp().perp() != s1:
        return ce("double complement moved the subspace", s1=s1)
    inter = s1.intersect(s2)
    if s1.sum_with(s2).dim + inter.dim != s1.dim + s2.dim:
        return ce("modular dimension law failed", s1=s1, s2=s2)
    rest = s1.relative_complement(s2)
    if rest.sum_with(inter) != s1 or not rest.intersect(inter).is_zero():
        return ce("relative complement does not split S1", s1=s1, s2=s2)
    return None


# -- section 3: one-sided idempotents ------------------------------------------


@check("semi_projection_characterization", ["semi-projection-form"])
def check_semi_projection(rng, cfg):
    if rng.randrange(2):
        e = (
            random_semi_projection(rng, cfg)
            if rng.randrange(2)
            else random_square_pool(rng, cfg)
        )
        cls = classify(e)
        alt = cls.is_idempotent and e.dom.contains(e.ran)
        if cls.is_semi_projection != alt:
            return ce("semi-projection flag disagrees with the definition", e=e)
        return None
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    p = semi_projection(m, n)
    if p.ran != m or p.ker != n:
        return ce("semi-projection has wrong range or kernel", m=m, n=n)
    if p.dom != m.sum_with(n) or p.mul != m.intersect(n):
        return ce("semi-projection has wrong dom or mul", m=m, n=n)
    if not classify(p).is_semi_projection:
        return ce("constructed semi-projection not recognized", m=m, n=n)
    return None


@check("canonical_sandwich", ["canonical-sandwich"])
def check_sandwich(rng, cfg):
    e = random_square_pool(rng, cfg)
    lower = super_form(e.one_minus().ker, e.ker, e.mul)
    upper = sub_form(e.ran, e.one_minus().ran, e.dom)
    if not lower.leq(e):
        return ce("kernel-style form escapes E", e=e)
    if not e.leq(upper):
        return ce("E escapes the range-style form", e=e)
    return None


@check("restricted_form_parts", ["restricted-form-parts"])
def check_restricted_parts(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    r = sub_form(m, n, s)
    if r.dom != m.sum_with(n).intersect(s):
        return ce("dom of the restricted form", m=m, n=n, s=s)
    if r.ran != m.intersect(n.sum_with(s)):
        return ce("ran of the restricted form", m=m, n=n, s=s)
    if r.ker != n.intersect(s):
        return ce("ker of the restricted form", m=m, n=n, s=s)
    if r.mul != m.intersect(n):
        return ce("mul of the restricted form", m=m, n=n, s=s)
    return None


@check("augmented_form_parts", ["augmented-form-parts"])
def check_augmented_parts(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    t = super_form(m, n, s)
    if t.dom != m.sum_with(n):
        return ce("dom of the augmented form", m=m, n=n, s=s)
    if t.ran != m.sum_with(s):
        return ce("ran of the augmented form", m=m, n=n, s=s)
    if t.ker != n.sum_with(m.intersect(s)):
        return ce("ker of the augmented form", m=m, n=n, s=s)
    if t.mul != s.sum_with(m.intersect(n)):
        return ce("mul of the augmented form", m=m, n=n, s=s)
    return None


@check("restricted_form_algebra", ["restricted-form-algebra"])
def check_restricted_algebra(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    r = sub_form(m, n, s)
    if rng.randrange(2):
        if r.one_minus() != sub_form(n, m, s):
            return ce("I-R is not the swapped restricted form", m=m, n=n, s=s)
        return None
    if r.inverse() != sub_form(s, n, m):
        return ce("R^-1 is not the rotated restricted form", m=m, n=n, s=s)
    return None


@check("augmented_form_algebra", ["augmented-form-algebra"])
def check_augmented_algebra(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    t = super_form(m, n, s)
    if rng.randrange(2):
        if t.one_minus() != super_form(n, m, s):
            return ce("I-T is not the swapped augmented form", m=m, n=n, s=s)
        return None
    if t.inverse() != super_form(m, s, n):
        return ce("T^-1 is not the rotated augmented form", m=m, n=n, s=s)
    return None


@check(
    "sub_characterizations",
    ["sub-idempotent-characterizations", "idempotent-set-parameterizations"],
)
def check_sub_characterizations(rng, cfg):
    e = random_sub_idempotent(rng, cfg) if rng.randrange(2) else random_square_pool(rng, cfg)
    cls = classify(e)
    if rng.randrange(2):
        form = sub_form(e.ran, e.one_minus().ran, e.dom)
        if (e == form) != cls.is_sub:
            return ce("restricted-form identity disagrees with sub flag", e=e)
        return None
    diag = semi_projection(e.ran.intersect(e.dom), e.ker)
    if diag.leq(e) != cls.is_sub:
        return ce("diagonal containment disagrees with sub flag", e=e)
    if cls.is_sub and e.mul.intersect(e.dom) != e.ran.intersect(e.ker):
        return ce("sub consequence mul meet dom = ran meet ker failed", e=e)
    return None


@check(
    "super_characterizations",
    ["super-idempotent-characterizations", "idempotent-set-parameterizations"],
)
def check_super_characterizations(rng, cfg):
    e = random_super_idempotent(rng, cfg) if rng.randrange(2) else random_square_pool(rng, cfg)
    cls = classify(e)
    if rng.randrange(2):
        form = super_form(e.one_minus().ker, e.ker, e.mul)
        if (e == form) != cls.is_super:
            return ce("augmented-form identity disagrees with super flag", e=e)
        return None
    bound = semi_projection(e.ran, e.ker.sum_with(e.mul))
    if e.leq(bound) != cls.is_super:
        return ce("semi-projection bound disagrees with super flag", e=e)
    if cls.is_super and e.dom != e.ran.intersect(e.dom).sum_with(e.ker):
        return ce("super consequence dom = ran meet dom + ker failed", e=e)
    return None


@check("one_sided_closure_ops", ["one-sided-closure-ops", "idempotent-closure-ops"])
def check_closure_ops(rng, cfg):
    e = random_square_pool(rng, cfg)
    cls = classify(e)
    if rng.randrange(2):
        label, other = "I-E", e.one_minus()
    else:
        label, other = "inverse", e.inverse()
    other_cls = classify(other)
    if (
        other_cls.is_sub != cls.is_sub
        or other_cls.is_super != cls.is_super
        or other_cls.is_idempotent != cls.is_idempotent
    ):
        return ce(f"classification not preserved under {label}", e=e)
    return None


@check("one_sided_to_idempotent", ["one-sided-to-idempotent"])
def check_one_sided_to_idempotent(rng, cfg):
    e = random_square_pool(rng, cfg)
    cls = classify(e)
    sub_route = cls.is_sub and e.dom == e.ran.intersect(e.dom).sum_with(e.ker)
    if sub_route != cls.is_idempotent:
        return ce("sub plus domain identity disagrees with idempotency", e=e)
    super_route = cls.is_super and e.mul.intersect(e.dom) == e.ran.intersect(e.ker)
    if super_route != cls.is_idempotent:
        return ce("super plus mul identity disagrees with idempotency", e=e)
    return None


@check("square_closed_forms", ["square-closed-forms"])
def check_square_closed_forms(rng, cfg):
    e = random_square_pool(rng, cfg)
    cls = classify(e)
    e2 = square(e)
    if rng.randrange(2):
        sub_closed = super_form(e.one_minus().ker, e.ker, e.mul)
        if (e2 == sub_closed) != cls.is_sub:
            return ce("sub closed form disagrees with sub flag", e=e)
        return None
    super_closed = sub_form(e.ran, e.one_minus().ran, e.dom)
    if (e2 == super_closed) != cls.is_super:
        return ce("super closed form disagrees with super flag", e=e)
    return None


@check("square_part_equalities", ["square-part-equalities"])
def check_square_parts(rng, cfg):
    if rng.randrange(2):
        e = random_sub_idempotent(rng, cfg)
        e2 = e.squared()
        if e2.ker != e.ker or e2.mul != e.mul:
            return ce("squaring a sub changed ker or mul", e=e)
        if e2.one_minus().ker != e.one_minus().ker:
            return ce("squaring a sub changed ker(I-E)", e=e)
        return None
    f = random_super_idempotent(rng, cfg)
    f2 = f.squared()
    if f2.ran != f.ran or f2.dom != f.dom:
        return ce("squaring a super changed ran or dom", e=f)
    if f2.one_minus().ran != f.one_minus().ran:
        return ce("squaring a super changed ran(I-E)", e=f)
    return None


@check("square_preserves_sidedness", ["square-preserves-sidedness"])
def check_square_sidedness(rng, cfg):
    if rng.randrange(2):
        e = random_sub_idempotent(rng, cfg)
        cls2 = classify(square(e))
        if not cls2.is_sub or not cls2.is_idempotent:
            return ce("square of a sub is not an idempotent sub", e=e)
        return None
    f = random_super_idempotent(rng, cfg)
    cls2 = classify(square(f))
    if not cls2.is_super or not cls2.is_idempotent:
        return ce("square of a super is not an idempotent super", e=f)
    return None


@check("square_characterization", ["square-characterization"])
def check_square_characterization(rng, cfg):
    e = random_square_pool(rng, cfg)
    cls = classify(e)
    e2 = e.squared()
    cls2 = classify(e2)
    sub_route = (
        e2.ker == e.ker
        and e2.mul == e.mul
        and e2.one_minus().ker == e.one_minus().ker
        and cls2.is_super
    )
    if sub_route != cls.is_sub:
        return ce("square characterization of sub failed", e=e)
    super_route = (
        e2.ran == e.ran
        and e2.dom == e.dom
        and e2.one_minus().ran == e.one_minus().ran
        and cls2.is_sub
    )
    if super_route != cls.is_super:
        return ce("square characterization of super failed", e=e)
    return None


@check("strictness_witnesses", ["strictness-witnesses"], scale=0.05)
def check_strictness(rng, cfg):
    n = max(2, cfg.ambient_dim)
    e1 = [GaussianRational(0)] * n
    e2 = [GaussianRational(0)] * n
    e1[0] = GaussianRational(1)
    e2[1] = GaussianRational(1)
    diag = [a + b for a, b in zip(e1, e2)]
    span1 = Subspace.span([e1], n)
    span2 = Subspace.span([e2], n)
    spand = Subspace.span([diag], n)
    strict_sub = sub_form(span1, span2, spand)
    cls = classify(strict_sub)
    if not (cls.is_sub and not cls.is_super):
        return ce("deterministic strictly-sub witness misclassified", e=strict_sub)
    strict_super = super_form(span1, spand, span2)
    cls = classify(strict_super)
    if not (cls.is_super and not cls.is_sub):
        return ce("deterministic strictly-super witness misclassified", e=strict_super)
    r = random_sub_idempotent(rng, cfg)
    if not classify(r).is_sub:
        return ce("restricted form lost sub-idempotency", e=r)
    t = random_super_idempotent(rng, cfg)
    if not classify(t).is_super:
        return ce("augmented form lost super-idempotency", e=t)
    return None


# -- section 4: idempotents ------------------------------------------------------


@check("idempotent_canonical_forms", ["idempotent-canonical-forms"])
def check_idempotent_forms(rng, cfg):
    e = random_idempotent(rng, cfg) if rng.randrange(2) else random_square_pool(rng, cfg)
    cls = classify(e)
    complement = e.one_minus()
    if rng.randrange(2):
        kernel_form = super_form(complement.ker, e.ker, e.mul)
        mixed_super = (e == kernel_form) and e.mul.intersect(e.dom) == e.ran.intersect(
            e.ker
        )
        if mixed_super != cls.is_idempotent:
            return ce("kernel form plus mul identity disagrees", e=e)
        return None
    range_form = sub_form(e.ran, complement.ran, e.dom)
    mixed_sub = (e == range_form) and e.dom == e.ran.intersect(e.dom).sum_with(e.ker)
    if mixed_sub != cls.is_idempotent:
        return ce("range form plus domain identity disagrees", e=e)
    return None


@check("idempotent_part_identities", ["idempotent-part-identities"])
def check_idempotent_parts(rng, cfg):
    e = random_idempotent(rng, cfg)
    complement = e.one_minus()
    m, n, s = complement.ker, e.ker, e.mul
    if e.dom != m.sum_with(n):
        return ce("dom != ker(I-E) + ker E", e=e)
    if e.ran != m.sum_with(s):
        return ce("ran != ker(I-E) + mul E", e=e)
    if e.ker != complement.ran.intersect(e.dom):
        return ce("ker != ran(I-E) meet dom E", e=e)
    if e.mul != e.ran.intersect(complement.ran):
        return ce("mul != ran E meet ran(I-E)", e=e)
    return None


@check("idempotent_set_parameterizations", ["idempotent-set-parameterizations"])
def check_idempotent_set_forms(rng, cfg):
    if rng.randrange(2):
        m = random_subspace(rng, cfg)
        n = random_subspace(rng, cfg)
        s = random_subspace(rng, cfg)
        e1 = super_form(m.intersect(s), n.intersect(s), m.intersect(n))
        if not classify(e1).is_idempotent:
            return ce("meet-parameterized form is not idempotent", m=m, n=n, s=s)
        e2 = sub_form(m.sum_with(s), n.sum_with(s), m.sum_with(n))
        if not classify(e2).is_idempotent:
            return ce("sum-parameterized form is not idempotent", m=m, n=n, s=s)
        return None
    e = random_idempotent(rng, cfg)
    x, y, z = e.ran, e.one_minus().ran, e.dom
    if e != super_form(x.intersect(z), y.intersect(z), x.intersect(y)):
        return ce("idempotent escapes the meet parameterization", e=e)
    t = kernel_triple(e)
    if e != sub_form(t.m.sum_with(t.s), t.n.sum_with(t.s), t.m.sum_with(t.n)):
        return ce("idempotent escapes the sum parameterization", e=e)
    return None


@check("identity_restriction_criterion", ["identity-restriction-criterion"])
def check_identity_restriction(rng, cfg):
    e = random_square_pool(rng, cfg)
    cls = classify(e)
    criterion = e.ran.sum_with(e.ker).contains(e.dom) and LinearRelation.identity_on(
        e.ran.intersect(e.dom)
    ).leq(e)
    if criterion != cls.is_idempotent:
        return ce("identity-restriction criterion disagrees", e=e)
    return None


@check("smallest_idempotent_above", ["smallest-idempotent-above"], scale=0.06)
def check_smallest_idempotent(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    e0 = minimal_idempotent(m, n, s)
    if not classify(e0).is_idempotent:
        return ce("minimal construction is not idempotent", m=m, n=n, s=s)
    t = kernel_triple(e0)
    if not (t.m.contains(m) and t.n.contains(n) and t.s.contains(s)):
        return ce("minimal idempotent does not dominate the triple", m=m, n=n, s=s)
    closure_triple = (
        m.sum_with(n).intersect(m.sum_with(s)),
        n.sum_with(m).intersect(n.sum_with(s)),
        s.sum_with(m).intersect(s.sum_with(n)),
    )
    if (t.m, t.n, t.s) != closure_triple:
        return ce("kernel triple differs from the minimal enlargement", m=m, n=n, s=s)
    if ic_holds(m, n, s) and e0 != build_pmns(m, n, s):
        return ce("minimal idempotent of an IC triple is not the triple's", m=m, n=n, s=s)
    for _ in range(cfg.extremality_samples):
        bigger = minimal_idempotent(
            m.sum_with(random_subspace(rng, cfg)),
            n.sum_with(random_subspace(rng, cfg)),
            s.sum_with(random_subspace(rng, cfg)),
        )
        if not e0.leq(bigger):
            return ce("a dominating idempotent fails to contain the minimal one",
                      m=m, n=n, s=s, dominating=bigger)
    return None


@check("largest_idempotent_below", ["largest-idempotent-below"], scale=0.06)
def check_largest_idempotent(rng, cfg):
    x = random_subspace(rng, cfg)
    y = random_subspace(rng, cfg)
    z = random_subspace(rng, cfg)
    f0 = maximal_idempotent(x, y, z)
    if f0 != maximal_idempotent_hat_form(x, y, z):
        return ce("the two maximal constructions differ", x=x, y=y, z=z)
    if not classify(f0).is_idempotent:
        return ce("maximal construction is not idempotent", x=x, y=y, z=z)
    if not (
        x.contains(f0.ran)
        and y.contains(f0.one_minus().ran)
        and z.contains(f0.dom)
    ):
        return ce("maximal idempotent escapes its bounds", x=x, y=y, z=z)
    t = kernel_triple(f0)
    expected = (x.intersect(z), y.intersect(z), x.intersect(y))
    if (t.m, t.n, t.s) != expected:
        return ce("kernel triple differs from the maximal restriction", x=x, y=y, z=z)
    for _ in range(cfg.extremality_samples):
        smaller = maximal_idempotent(
            x.intersect(random_subspace(rng, cfg)),
            y.intersect(random_subspace(rng, cfg)),
            z.intersect(random_subspace(rng, cfg)),
        )
        if not smaller.leq(f0):
            return ce("a bounded idempotent escapes the maximal one",
                      x=x, y=y, z=z, bounded=smaller)
    return None


@check("kernel_triple_condition", ["kernel-triple-condition", "ic-recipes"])
def check_kernel_triple(rng, cfg):
    mode = rng.randrange(3)
    if mode == 0:
        e = random_idempotent(rng, cfg)
        t = kernel_triple(e)
        if build_pmns(t.m, t.n, t.s) != e:
            return ce("rebuilding from the kernel triple changed the idempotent", e=e)
        return None
    if mode == 1:
        t2 = random_ic_triple(rng, cfg)
        e2 = build_pmns(t2.m, t2.n, t2.s)
        if kernel_triple(e2) != t2:
            return ce("kernel triple of the built idempotent differs", triple=t2)
        return None
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    third = (
        m.sum_with(n).intersect(m.sum_with(s)) == m
        and m.intersect(n) == m.intersect(s)
    )
    if ic_holds(m, n, s) != third:
        return ce("IC disagrees with its two-identity form", m=m, n=n, s=s)
    if not ic_holds(m, n, s):
        try:
            build_pmns(m, n, s)
        except ICViolationError:
            pass
        else:
            return ce("building from a non-IC triple did not fail", m=m, n=n, s=s)
    return None


@check("range_triple_condition", ["range-triple-condition"])
def check_range_triple(rng, cfg):
    if rng.randrange(2):
        e = random_idempotent(rng, cfg)
        t = range_triple(e)
        if build_from_range_triple(t.x, t.y, t.z) != e:
            return ce("rebuilding from the range triple changed the idempotent", e=e)
        return None
    x = random_subspace(rng, cfg)
    y = random_subspace(rng, cfg)
    z = random_subspace(rng, cfg)
    third = (
        x == x.intersect(y).sum_with(x.intersect(z))
        and x.sum_with(y) == x.sum_with(z)
    )
    if range_condition_holds(x, y, z) != third:
        return ce("range condition disagrees with its two-identity form", x=x, y=y, z=z)
    if range_condition_holds(x, y, z):
        f = build_from_range_triple(x, y, z)
        rt = range_triple(f)
        if (rt.x, rt.y, rt.z) != (x, y, z):
            return ce("range triple of the built idempotent differs", x=x, y=y, z=z)
    else:
        try:
            build_from_range_triple(x, y, z)
        except ICViolationError:
            pass
        else:
            return ce("building from a bad range triple did not fail", x=x, y=y, z=z)
    return None


@check("triple_conversion", ["triple-conversion"])
def check_triple_conversion(rng, cfg):
    if rng.randrange(2):
        t = random_ic_triple(rng, cfg)
        rt = triple_convert(t)
        if range_to_kernel(rt) != t:
            return ce("kernel -> range -> kernel round trip failed", triple=t)
        if build_pmns(t.m, t.n, t.s) != build_from_range_triple(rt.x, rt.y, rt.z):
            return ce("the two triple builders disagree", triple=t)
        return None
    e = random_idempotent(rng, cfg)
    rt2 = range_triple(e)
    if triple_convert(range_to_kernel(rt2)) != rt2:
        return ce("range -> kernel -> range round trip failed", e=e)
    if triple_convert(kernel_triple(e)) != rt2:
        return ce("triple conversion disagrees with the relation parts", e=e)
    return None


@check("ic_recipes", ["ic-recipes"])
def check_ic_recipes(rng, cfg):
    if rng.randrange(2):
        m = random_subspace(rng, cfg)
        n = random_subspace(rng, cfg)
        s = random_subspace(rng, cfg)
        if not ic_holds(m, n, m.intersect(n)):
            return ce("(M, N, M meet N) fails the IC", m=m, n=n)
        if not ic_holds(n.intersect(s), m.intersect(s), m.intersect(n)):
            return ce("pairwise intersections fail the IC", m=m, n=n, s=s)
        return None
    t = random_relation(rng, cfg)
    lhs = ic_holds(t.ran.intersect(t.dom), t.ker, t.mul)
    rhs = t.mul.intersect(t.dom) == t.ran.intersect(t.ker)
    if lhs != rhs:
        return ce("part-triple IC disagrees with the mul/dom identity", t=t)
    return None


@check("triple_inverse_complement", ["triple-inverse-complement"])
def check_triple_inverse_complement(rng, cfg):
    t = random_ic_triple(rng, cfg)
    e = build_pmns(t.m, t.n, t.s)
    if e.inverse() != build_pmns(t.m, t.s, t.n):
        return ce("inverse did not swap kernel and mul slots", triple=t)
    if e.one_minus() != build_pmns(t.n, t.m, t.s):
        return ce("I-E did not swap the first two slots", triple=t)
    return None


# -- section 5: adjoints of idempotents -------------------------------------------


@check("semi_projection_adjoint", ["semi-projection-adjoint"])
def check_semi_projection_adjoint(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    if semi_projection(m, n).adjoint() != semi_projection(n.perp(), m.perp()):
        return ce("adjoint of a semi-projection mismatch", m=m, n=n)
    return None


@check("augmented_form_adjoint", ["augmented-form-adjoint"])
def check_augmented_adjoint(rng, cfg):
    m = random_subspace(rng, cfg)
    n = random_subspace(rng, cfg)
    s = random_subspace(rng, cfg)
    lhs = super_form(m, n, s).adjoint()
    rhs = sub_form(n.perp(), m.perp(), s.perp())
    if lhs != rhs:
        return ce("adjoint of the augmented form mismatch", m=m, n=n, s=s)
    return None


@check("idempotent_adjoint_triple", ["idempotent-adjoint-triple"])
def check_idempotent_adjoint(rng, cfg):
    e = random_idempotent(rng, cfg)
    t = kernel_triple(e)
    adj = e.adjoint()
    if not classify(adj).is_idempotent:
        return ce("adjoint of an idempotent is not idempotent", e=e)
    mp, np_, sp = t.m.perp(), t.n.perp(), t.s.perp()
    expected = IdempotentTriple(
        np_.intersect(sp), mp.intersect(sp), mp.intersect(np_)
    )
    if kernel_triple(adj) != expected:
        return ce("adjoint kernel triple mismatch", e=e)
    if adj.adjoint() != e:
        return ce("double adjoint moved the idempotent", e=e)
    return None


# -- angles ------------------------------------------------------------------------


@check("angle_range_symmetry", ["angle-range-symmetry"], scale=0.4, angle=True)
def check_angle_symmetry(rng, cfg):
    s = random_subspace(rng, cfg)
    t = random_subspace(rng, cfg)
    tol = cfg.tol
    c0 = dixmier_cos(s, t, tol)
    c = friedrichs_cos(s, t, tol)
    if not (0.0 <= c0 <= 1.0 and 0.0 <= c <= 1.0):
        return ce("cosine out of range", s=s, t=t, c0=c0, c=c)
    if abs(c0 - dixmier_cos(t, s, tol)) > tol:
        return ce("Dixmier cosine asymmetric", s=s, t=t)
    if abs(c - friedrichs_cos(t, s, tol)) > tol:
        return ce("Friedrichs cosine asymmetric", s=s, t=t)
    if c > c0 + tol:
        return ce("Friedrichs exceeds Dixmier", s=s, t=t, c0=c0, c=c)
    return None


@check("angle_closed_sum", ["angle-closed-sum"], scale=0.4, angle=True)
def check_angle_closed_sum(rng, cfg):
    s = random_subspace(rng, cfg)
    t = random_subspace(rng, cfg)
    c = friedrichs_cos(s, t, cfg.tol)
    if not c < 1.0 - 1e-9:
        return ce("Friedrichs cosine touched 1", s=s, t=t, c=c)
    return None


@check(
    "angle_dixmier_detects_intersection",
    ["angle-dixmier-detects-intersection"],
    scale=0.4,
    angle=True,
)
def check_angle_intersection(rng, cfg):
    s = random_subspace(rng, cfg)
    t = random_subspace(rng, cfg)
    c0 = dixmier_cos(s, t, cfg.tol)
    nontrivial = not s.intersect(t).is_zero()
    if (abs(c0 - 1.0) < 1e-6) != nontrivial:
        return ce("Dixmier threshold disagrees with exact intersection",
                  s=s, t=t, c0=c0)
    return None


@check(
    "angle_coincide_trivial_meet",
    ["angle-coincide-trivial-meet"],
    scale=0.4,
    angle=True,
)
def check_angle_coincide(rng, cfg):
    s = random_subspace(rng, cfg, dim=rng.randint(0, cfg.ambient_dim // 2))
    t = random_subspace(rng, cfg, dim=rng.randint(0, cfg.ambient_dim // 2))
    if not s.intersect(t).is_zero():
        return None
    c0 = dixmier_cos(s, t, cfg.tol)
    c = friedrichs_cos(s, t, cfg.tol)
    if abs(c - c0) > cfg.tol:
        return ce("cosines differ despite trivial intersection", s=s, t=t, c0=c0, c=c)
    return None


@check("angle_monotonicity", ["angle-monotonicity"], scale=0.4, angle=True)
def check_angle_monotonicity(rng, cfg):
    s = random_subspace(rng, cfg)
    w = random_subspace(rng, cfg)
    meet = w.intersect(s)
    extra_pool = w.relative_complement(s)
    extra_vectors = extra_pool.basis_vectors()
    keep = [v for v in extra_vectors if rng.randrange(2)]
    t = meet.sum_with(Subspace.span(keep, cfg.ambient_dim))
    if t.intersect(s) != meet:
        return ce("nested construction changed the intersection", s=s, w=w)
    if friedrichs_cos(t, s, cfg.tol) > friedrichs_cos(w, s, cfg.tol) + 1e-9:
        return ce("cosine decreased under enlargement", s=s, w=w, t=t)
    return None


@check("angle_sampled_sup_bound", ["angle-sampled-sup-bound"], scale=0.4, angle=True)
def check_angle_sampled_sup(rng, cfg):
    s = random_subspace(rng, cfg)
    t = random_subspace(rng, cfg)
    c = friedrichs_cos(s, t, cfg.tol)
    s_part = s.relative_complement(t)
    t_part = t.relative_complement(s)
    if s_part.is_zero() or t_part.is_zero():
        return None
    bs = orthonormal_basis_f64(s_part, cfg.tol)
    bt = orthonormal_basis_f64(t_part, cfg.tol)
    for _ in range(16):
        a = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(bs.dim)]
        b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(bt.dim)]
        x = [sum(w * v[k] for w, v in zip(a, bs.vectors)) for k in range(bs.ambient_dim)]
        y = [sum(w * v[k] for w, v in zip(b, bt.vectors)) for k in range(bt.ambient_dim)]
        nx, ny = vector_norm(x), vector_norm(y)
        if nx < 1e-12 or ny < 1e-12:
            continue
        sampled = abs(vdot(y, x)) / (nx * ny)
        if sampled > c + 1e-9:
            return ce("sampled inner product exceeded the cosine", s=s, t=t,
                      sampled=float(sampled), c=c)
    return None
