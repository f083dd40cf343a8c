"""The benchmark's workloads.

A workload has a `setup(seed, workdir)` that builds its inputs from the
seed alone, and a round: a generator that yields operations.  Each `Op`
is one call into cohomkit's public API (the timed part) plus a check of
its answer against `reference` (not timed).  The runner sends each op's
result back into the generator, so later inputs can be planted on
earlier answers; that preparation runs between ops and is not timed
either.  Every round yields exactly `ops` operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from math import lcm
from typing import Callable

import numpy as np

import cohomkit.cli as cli
import cohomkit.cochains as cochains
import cohomkit.cohomology as cohomology
import cohomkit.groups as groups
import cohomkit.lifting as lifting
import cohomkit.modular as modular
from cohomkit.qz import QZ

import reference as ref
from reference import Reject

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], dict]
    round: Callable[[dict], object]
    ops: int
    # a round's length on the 2-core reference machine; a run of --seconds
    # does seconds // round_s rounds (at least one)
    round_s: float


def clear_caches() -> None:
    cohomology.clear_caches()
    modular.clear_caches()


# -- bridges between dense arrays and cohomkit's types ------------------------

def to_cochain(group, f: np.ndarray, den: int):
    """A cohomkit Q/Z cochain with entries f / den (input building only)."""
    entries = {}
    for idx in zip(*np.nonzero(f)):
        entries[tuple(int(i) for i in idx)] = QZ(int(f[idx]), den)
    return cochains.Cochain(group, f.ndim, "qz", entries)


def dense(f) -> tuple[np.ndarray, int]:
    """(numerators, denominator) of a cohomkit Q/Z cochain."""
    den = 1
    for v in f.entries.values():
        den = lcm(den, v.den)
    arr = np.zeros((f.group.order,) * f.degree, dtype=np.int64)
    for key, v in f.entries.items():
        arr[key] = (v.num * (den // v.den)) % den
    return arr, den


def table_of(group) -> np.ndarray:
    return np.array(group.table, dtype=np.int64)


def relabel(group, rng: np.random.Generator, name: str):
    """An isomorphic copy with the non-identity elements permuted.

    Returns the copy and `perm`, old index -> new index."""
    n = group.order
    perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    inv = np.argsort(perm)
    old = table_of(group)
    table = perm[old[np.ix_(inv, inv)]]
    return groups.FiniteGroup(name, tuple(tuple(int(v) for v in row)
                                          for row in table)), perm


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Reject(message)


def check_cocycle(group, f) -> None:
    arr, den = dense(f)
    require(not np.any(ref.coboundary(table_of(group), arr, den)),
            f"{f!r} is not a cocycle under the reference coboundary")


def check_bounds(group, primitive, target: np.ndarray, den: int) -> None:
    arr, pden = dense(primitive)
    d = ref.coboundary(table_of(group), arr, pden)
    require(ref.same_cochain(d, pden, target, den),
            "the primitive's reference coboundary differs from the target")


def planted(group, generators, coords, rho: np.ndarray, rho_den: int):
    """sum_i c_i gen_i + d(rho): a cocycle whose class is c by construction.

    Returns the cohomkit cochain and its dense form."""
    den = rho_den
    parts = [dense(g) for g in generators]
    for _, gden in parts:
        den = lcm(den, gden)
    total = ref.rescale(ref.coboundary(table_of(group), rho, rho_den),
                        rho_den, den)
    for c, (arr, gden) in zip(coords, parts):
        total = np.mod(total + c * ref.rescale(arr, gden, den), den)
    return to_cochain(group, total, den), total, den


# -- factors -------------------------------------------------------------------

# One label per distinct multiplication table of order 8 and 12 in the
# catalog; the order-12 degree-4 sweep is the memory peak, so it keeps the
# catalog's own labelling and its peak does not move with the seed.
ORDER_8 = ["cyclic:8", "dihedral:4", "elem:2^3", "product:cyclic:2 x cyclic:4",
           "product:cyclic:4 x cyclic:2", "quaternion:8"]
ORDER_12 = ["cyclic:12", "dihedral:6", "product:cyclic:2 x cyclic:6",
            "product:cyclic:2 x dihedral:3", "product:cyclic:2 x sym:3",
            "product:cyclic:3 x cyclic:4", "product:cyclic:3 x dihedral:2",
            "product:cyclic:4 x cyclic:3", "product:cyclic:6 x cyclic:2",
            "product:dihedral:2 x cyclic:3", "product:dihedral:3 x cyclic:2",
            "product:sym:3 x cyclic:2"]
BIG_SWEEP = ("dihedral:6", 4)


def factors_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    queries = []
    for label in ORDER_8:
        for degree in (3, 4):
            queries.append((label, relabel(groups.from_label(label), rng,
                                           f"{label}~{degree}")[0], degree))
    # two copies of each: the median query falls among these, and the
    # median of 24 relabelled sweeps moves less with the seed than of 12
    for label in ORDER_12:
        for copy in "ab":
            queries.append((label, relabel(groups.from_label(label), rng,
                                           f"{label}~3{copy}")[0], 3))
    label, degree = BIG_SWEEP
    queries.append((label, groups.from_label(label), degree))
    order = rng.permutation(len(queries))
    return {"queries": [queries[i] for i in order]}


def factors_round(inputs: dict):
    for label, group, degree in inputs["queries"]:
        # as in a fresh `cohomkit coh`: nothing cached from earlier queries
        cohomology.clear_caches()
        yield Op(f"factors {label} degree {degree}",
                 lambda g=group, d=degree: cohomology.compute_cohomology(g, d),
                 lambda h, label=label, g=group, d=degree: ref.check_factors(
                     label, g.table, d, h.invariant_factors))


# -- lift ----------------------------------------------------------------------

KLEIN = "product:cyclic:2 x cyclic:2"
SECOND = "elem:2^3"     # degree 3: H^3 = (Z/2)^7


def _projection(group, n: int, images) -> np.ndarray:
    """A split surjection onto Z/n given by its images, verified here."""
    images = np.asarray(images, dtype=np.int64)
    table = table_of(group)
    if not np.array_equal(images[table], (images[:, None] + images[None, :]) % n):
        raise ValueError(f"{group.name}: images are not a homomorphism to Z/{n}")
    orders = ref.element_orders(group.table)
    if not any(images[x] == 1 and orders[x] == n for x in range(group.order)):
        raise ValueError(f"{group.name}: no section for the projection to Z/{n}")
    return images


def lift_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    base = groups.from_label(KLEIN)
    second = groups.from_label(SECOND)
    n2 = second.order
    # omega_k pulled back along a split projection onto Z/2, plus d(rho),
    # bounds iff k is even: two of each
    pi = _projection(second, 2, [u % 2 for u in range(n2)])
    second_tests = []
    for k in (int(k) for k in rng.permutation([0, 2, 1, 3])):
        w = ref.rescale(ref.pullback(pi, ref.omega(2, k)), 2, 4)
        rho = ref.random_cochain(rng, n2, 2, 4, 0.5)
        f = np.mod(ref.coboundary(table_of(second), rho, 4) + w, 4)
        second_tests.append((to_cochain(second, f, 4), k % 2 == 0))
    # every nonzero class of the base, from its closed-form factors
    nonzero = [c for c in itertools.product(
        *(range(n) for n in ref.expected_factors(KLEIN, 4))) if any(c)]
    return {
        "base": base,
        "classes": [nonzero[i] for i in rng.permutation(len(nonzero))],
        # the cover is whatever realize selects, so its coefficients and
        # cochains are drawn once it is known, from this seed: the same in
        # every round
        "batch_seed": [seed, 2, int(rng.integers(2 ** 31))],
        "second": second,
        "second_tests": second_tests,
    }


def lift_round(inputs: dict):
    base = inputs["base"]
    for coords in inputs["classes"]:
        skeleton = yield Op(f"realize {coords}",
                            lambda c=coords: lifting.realize(base, c),
                            lambda sk, c=coords: _check_realized(base, c, sk))
    rng = np.random.default_rng(inputs["batch_seed"])
    cover = skeleton.cover
    gens = yield Op(f"generators {cover.name} degree 4",
                    lambda: cohomology.compute_cohomology(cover, 4).generators,
                    lambda gs: _check_generators(cover, 4, gs))
    rhos = [ref.random_cochain(rng, cover.order, 3, 4, 0.3) for _ in range(11)]
    k = len(gens)
    tests = [(planted(cover, gens, c, rhos.pop(), 4)[0], not any(c))
             for c in ([0] * k, [0] * k, [1] + [0] * (k - 1), [1] * k)]
    yield from _batches(cover, 4, gens, _draw_coords(rng, cover, 4), tests,
                        rhos)
    second = inputs["second"]
    gens = yield Op(f"generators {second.name} degree 3",
                    lambda: cohomology.compute_cohomology(second, 3).generators,
                    lambda gs: _check_generators(second, 3, gs))
    rhos = [ref.random_cochain(rng, second.order, 2, 4, 0.5) for _ in range(6)]
    yield from _batches(second, 3, gens, _draw_coords(rng, second, 3),
                        inputs["second_tests"], rhos)


def _draw_coords(rng, group, degree):
    """Four coefficient vectors, one entry per invariant factor (already
    checked against the closed form by the generators op)."""
    factors = cohomology.compute_cohomology(group, degree).invariant_factors
    return [[int(rng.integers(0, n)) for n in factors] for _ in range(4)]


def _batches(group, degree, gens, coords, tests, rhos):
    """Coordinates of sum_i c_i gen_i + d(rho) for each c, the coboundary
    tests (cochain, planted answer), then a primitive of d(rho) for each
    of the remaining rhos."""
    h = cohomology.compute_cohomology(group, degree)
    rhos = list(rhos)
    for c in coords:
        f, _, _ = planted(group, gens, c, rhos.pop(), 4)
        yield Op(f"coordinates {group.name}",
                 lambda f=f: cohomology.class_coordinates(f, h),
                 lambda got, c=c: require(
                     list(got) == [int(v) for v in c],
                     f"coordinates {got}, planted {list(c)}"))
    for f, answer in tests:
        yield Op(f"is_coboundary {group.name}",
                 lambda f=f: cohomology.is_coboundary(f),
                 lambda got, a=answer: require(
                     got is a, f"is_coboundary gave {got}, planted {a}"))
    for rho in rhos:
        target = ref.coboundary(table_of(group), rho, 4)
        f = to_cochain(group, target, 4)
        yield Op(f"primitive {group.name}",
                 lambda f=f: cohomology.coboundary_primitive(f),
                 lambda g, t=target: check_bounds(group, g, t, 4))


def _check_generators(group, degree, gens) -> None:
    factors = cohomology.compute_cohomology(group, degree).invariant_factors
    ref.check_factors(group.name, group.table, degree, factors)
    require(len(gens) == len(factors), "one generator per factor")
    for g in gens:
        check_cocycle(group, g)


def _check_realized(base, coords, skeleton) -> None:
    """d(psi) must equal the pullback of the target class entrywise, where
    the target is sum_i c_i gen_i over the base's own generators."""
    gens = cohomology.compute_cohomology(base, 4).generators
    for g in gens:
        check_cocycle(base, g)
    _, target, den = planted(base, gens, coords,
                             np.zeros((base.order,) * 3, dtype=np.int64), 1)
    psi, pden = dense(skeleton.associator)
    images = np.array(skeleton.grading.images, dtype=np.int64)
    require(sorted(set(images.tolist())) == list(range(base.order)),
            "grading is not surjective")
    d = ref.coboundary(table_of(skeleton.cover), psi, pden)
    require(ref.same_cochain(d, pden, ref.pullback(images, target), den),
            "d(associator) is not the pullback of the target class")


# -- defects -------------------------------------------------------------------

def defects_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    with open(os.path.join(DATA, "klein.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    base_table = np.array(data["base_table"], dtype=np.int64)
    nb = len(base_table)
    skeletons = data["skeletons"]
    order = rng.permutation(len(skeletons))
    # the classes are checked against each other, modulo the base's
    # closed-form invariant factors
    out = {"dir": workdir, "base": base_table,
           "factors": ref.expected_factors(data["base_label"], 4)}

    def relabelled(entry, name):
        cover = groups.FiniteGroup(entry["cover_label"], tuple(
            tuple(r) for r in entry["cover_table"]))
        copy, perm = relabel(cover, rng, name)
        images = np.zeros(cover.order, dtype=np.int64)
        images[perm] = entry["grading"]
        den = 1
        for *_, d in entry["associator"]:
            den = lcm(den, d)
        psi = np.zeros((cover.order,) * 3, dtype=np.int64)
        for a, b, c, num, d in entry["associator"]:
            psi[perm[a], perm[b], perm[c]] = (num * (den // d)) % den
        return table_of(copy), images, psi, den

    for tag, i in zip("AB", order):
        table, images, psi, den = relabelled(skeletons[i], f"D8{tag}")
        ref.write_skeleton(os.path.join(workdir, f"{tag}.skeleton"), f"D8{tag}",
                           table, "V4", base_table, images, psi, den)
    # planted: psi = pullback(mu) + d(rho) descends to d(mu) exactly
    table, images, _, _ = relabelled(skeletons[order[0]], "D8P")
    mu = ref.random_cochain(rng, nb, 3, 4, 0.5)
    rho = ref.random_cochain(rng, len(table), 2, 4, 0.5)
    psi = np.mod(ref.pullback(images, mu) + ref.coboundary(table, rho, 4), 4)
    ref.write_skeleton(os.path.join(workdir, "P.skeleton"), "D8P", table,
                       "V4", base_table, images, psi, 4)
    out["mu"] = mu
    for tag in ("lam1", "lam2"):
        lam = ref.random_cochain(rng, nb, 3, 4, 0.5)
        ref.write_cochain(os.path.join(workdir, f"{tag}.cochain"), "V4",
                          base_table, lam, 4)
        out[tag] = lam
    return out


def _cli(argv: list[str]) -> dict:
    """One `cohomkit ... --json` invocation in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json", "--no-timing"])
    if code != 0:
        raise RuntimeError(f"cohomkit {' '.join(argv)} exited {code}: "
                           f"{err.getvalue().strip()}")
    return json.loads(out.getvalue())


DEFECT_INPUTS = {"A.skeleton", "B.skeleton", "P.skeleton", "lam1.cochain",
                 "lam2.cochain"}


def defects_round(inputs: dict):
    work = inputs["dir"]
    # outputs go to a fresh directory, so every round writes new files as
    # the first one does
    out_dir = tempfile.mkdtemp(prefix="round-", dir=work)
    base = inputs["base"]
    factors = inputs["factors"]

    def path(name):
        return os.path.join(work if name in DEFECT_INPUTS else out_dir, name)

    def add(*cs):
        return tuple(sum(v) % n for n, v in zip(factors, zip(*cs)))

    def neg(c):
        return tuple((-v) % n for n, v in zip(factors, c))

    nus, classes = {}, {}

    def defect(tag, class_law, expected=None):
        """Op: defect of <tag>.skeleton.  The written cocycle must equal the
        reference descent of the skeleton file, and `expected` when given;
        `class_law(classes, got)` relates the reported class to the classes
        of earlier defects in the round."""
        def check(report):
            cover, base_table, images, psi, den = ref.read_skeleton(
                path(f"{tag}.skeleton"))
            own = ref.descend(cover, images, psi, den, len(base_table))
            _, got, gden = ref.read_cochain(path(f"{tag}.nu"))
            require(ref.same_cochain(got, gden, own, den),
                    f"{tag}: defect differs from the reference descent")
            if expected is not None:
                want, wden = expected
                require(ref.same_cochain(got, gden, want, wden),
                        f"{tag}: defect differs from the planted cocycle")
            coords = tuple(int(v) for v in report["class"].split(","))
            require(len(coords) == len(factors)
                    and all(0 <= v < n for v, n in zip(coords, factors)),
                    f"{tag}: class {coords} is not reduced modulo {factors}")
            class_law(classes, coords)
            nus[tag] = (got, gden)
            classes[tag] = coords
        return Op(f"defect {tag}",
                  lambda: _cli(["defect", "--skeleton", path(f"{tag}.skeleton"),
                                "--out", path(f"{tag}.nu")]),
                  check)

    def nonzero_unlike(*others):
        def law(known, got):
            require(any(got), f"class {got} is zero")
            for o in others:
                require(got != known[o], f"class {got} equals that of {o}")
        return law

    def equals(describe, want):
        def law(known, got):
            w = want(known)
            require(got == w, f"class {got}, expected {describe} = {w}")
        return law

    def reversed_inverse(tag):
        nu, den = nus[tag]
        return ref.reversed_inverse(nu, den, base), den

    def shifted(tag, lam):
        nu, den = nus[tag]
        d = ref.coboundary(base, lam, 4)
        full = lcm(den, 4)
        return np.mod(ref.rescale(nu, den, full) + ref.rescale(d, 4, full),
                      full), full

    def summed(left, right):
        (a, da), (b, db) = nus[left], nus[right]
        full = lcm(da, db)
        return np.mod(ref.rescale(a, da, full) + ref.rescale(b, db, full),
                      full), full

    def twisted(src, lam_tag, out):
        def check(_):
            _, _, images, psi, den = ref.read_skeleton(path(f"{src}.skeleton"))
            _, _, images2, psi2, den2 = ref.read_skeleton(path(f"{out}.skeleton"))
            require(np.array_equal(images, images2), "twist changed the grading")
            lifted = ref.pullback(images, inputs[lam_tag])
            full = lcm(den, 4)
            want = np.mod(ref.rescale(psi, den, full)
                          + ref.rescale(lifted, 4, full), full)
            require(ref.same_cochain(psi2, den2, want, full),
                    "twisted associator is not psi + pullback(lambda)")
        return Op(f"twist {src}",
                  lambda: _cli(["twist", "--skeleton", path(f"{src}.skeleton"),
                                "--twist-by", path(f"{lam_tag}.cochain"),
                                "--out", path(f"{out}.skeleton")]),
                  check)

    def opposed(src, out):
        def check(_):
            cover, _, images, psi, den = ref.read_skeleton(path(f"{src}.skeleton"))
            cover2, _, images2, psi2, den2 = ref.read_skeleton(
                path(f"{out}.skeleton"))
            inv = np.argmax(base == 0, axis=1)
            require(np.array_equal(cover2, cover.T), "cover is not opposite")
            require(np.array_equal(images2, inv[images]),
                    "grading is not inversion after the original")
            require(ref.same_cochain(psi2, den2,
                                     np.mod(-psi.transpose(2, 1, 0), den), den),
                    "associator is not -psi(c, b, a)")
        return Op(f"oppose {src}",
                  lambda: _cli(["oppose", "--skeleton", path(f"{src}.skeleton"),
                                "--out", path(f"{out}.skeleton")]),
                  check)

    def fibered(left, right, out, order):
        def check(report):
            require(report["cover"].endswith(f"(order {order})"),
                    f"fiber product cover is {report['cover']}")
        return Op(f"fibprod {left} {right}",
                  lambda: _cli(["fibprod", "--left", path(f"{left}.skeleton"),
                                "--right", path(f"{right}.skeleton"),
                                "--out", path(f"{out}.skeleton")]),
                  check)

    # the two order-8 skeletons realize distinct nonzero classes; every
    # later class follows from theirs.  Over the Klein four-group every
    # class is 2-torsion, so `oppose` negating the class shows only in the
    # defect cocycle itself, which must be A's reversed and inverted.
    yield defect("A", nonzero_unlike())
    yield defect("B", nonzero_unlike("A"))
    yield twisted("A", "lam1", "TA")
    yield defect("TA", equals("A", lambda k: k["A"]),
                 shifted("A", inputs["lam1"]))
    yield opposed("A", "OA")
    yield defect("OA", equals("-A", lambda k: neg(k["A"])),
                 reversed_inverse("A"))
    yield fibered("A", "B", "F16", 16)
    yield defect("F16", equals("A + B", lambda k: add(k["A"], k["B"])),
                 summed("A", "B"))
    yield fibered("F16", "OA", "F32", 32)
    yield defect("F32", equals("F16 + OA", lambda k: add(k["F16"], k["OA"])),
                 summed("F16", "OA"))
    yield defect("P", equals("0", lambda k: (0,) * len(factors)),
                 (ref.coboundary(base, inputs["mu"], 4), 4))
    yield twisted("F16", "lam2", "TF")
    yield defect("TF", equals("F16", lambda k: k["F16"]),
                 shifted("F16", inputs["lam2"]))


# -- crosscheck ----------------------------------------------------------------

# degree 4 through the modular pipeline costs 4 s (cyclic:8) to 26 s
# (dihedral:4); these two keep a round near 20 s and keep their labelling
MODULAR_DEGREE_4 = ["cyclic:8", "quaternion:8"]
# (label, n, images of a split projection onto Z/n)
PROJECTIONS = [
    ("cyclic:8", 8, lambda u: u),
    ("product:cyclic:2 x cyclic:4", 4, lambda u: u % 4),
    ("dihedral:4", 2, lambda u: u // 4),
    ("elem:2^3", 2, lambda u: u % 2),
]


def crosscheck_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 4])
    modular_queries = [(label, relabel(groups.from_label(label), rng,
                                       f"{label}~")[0], 3)
                       for label in ORDER_8]
    modular_queries += [(label, groups.from_label(label), 4)
                        for label in MODULAR_DEGREE_4]
    bounded = []
    for label, n, proj in PROJECTIONS:
        group = groups.from_label(label)
        table = table_of(group)
        pi = _projection(group, n, [proj(u) for u in range(group.order)])
        # two planted coboundaries and four planted non-coboundaries each
        ks = [0, 0] + [int(k) for k in rng.choice(np.arange(1, n), 4)]
        for k in ks:
            rho = ref.random_cochain(rng, group.order, 2, n, 0.5)
            f = np.mod(ref.coboundary(table, rho, n)
                       + ref.pullback(pi, ref.omega(n, k)), n)
            bounded.append((label, to_cochain(group, f, n), k % n == 0))
    for label in ("cyclic:8", "dihedral:4"):
        group = groups.from_label(label)
        rho = ref.random_cochain(rng, group.order, 3, 2, 0.5)
        bounded.append((label, to_cochain(
            group, ref.coboundary(table_of(group), rho, 2), 2), True))
    order = rng.permutation(len(bounded))
    return {"modular": modular_queries,
            "bounded": [bounded[i] for i in order]}


def crosscheck_round(inputs: dict):
    for label, group, degree in inputs["modular"]:
        yield Op(f"modular {label} degree {degree}",
                 lambda g=group, d=degree: modular.invariant_factors_modular(g, d),
                 lambda got, label=label, g=group, d=degree: ref.check_factors(
                     label, g.table, d, got))
    for label, f, answer in inputs["bounded"]:
        # each test builds its own echelon, as a fresh process would
        modular.clear_caches()
        yield Op(f"bounded {label} degree {f.degree}",
                 lambda f=f: cohomology.is_coboundary(f, method="bounded"),
                 lambda got, a=answer: require(
                     got is a, f"bounded test gave {got}, planted {a}"))


WORKLOADS = {
    "factors": Workload("factors", factors_setup, factors_round,
                        len(ORDER_8) * 2 + len(ORDER_12) * 2 + 1, 40.0),
    "lift": Workload("lift", lift_setup, lift_round, 26, 9.5),
    "defects": Workload("defects", defects_setup, defects_round, 13, 7.0),
    "crosscheck": Workload("crosscheck", crosscheck_setup, crosscheck_round,
                           len(ORDER_8) + len(MODULAR_DEGREE_4)
                           + 6 * len(PROJECTIONS) + 2, 16.0),
}
