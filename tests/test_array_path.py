"""The engine's array path against the scalar reference algebra.

``reference_report`` runs the per-level object pipeline: extract and fuse
the tables at every level, score every pair with ``kernel_similarity``,
cut member sets with ``cut_granules``, and build utilities cell by cell.
The array path must give the same regions and rankings, with
probabilities and expected utilities within 1e-12.  Fusion and the
baseline ranking, which read the tables' mean-subscript arrays, must
equal their cell-by-cell references exactly.
"""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm.cli import main as cli_main
from s3wgdm.engine import (
    BND,
    NEG,
    POS,
    DecisionReport,
    EngineParams,
    GranularLevel,
    LevelConfig,
    baseline_full_fusion,
    classify,
    expected_perceived_utility,
    rank,
    run_sequential,
)
from s3wgdm.linguistic import (
    DHHFLE,
    DHLT,
    DHLTScale,
    linguistic_expected_value,
    mirror,
    superior_gradus,
)
from s3wgdm.neighborhood import (
    SimilarityMatrix,
    concept_membership,
    conditional_probability,
    cut_granules,
    kernel_similarity,
)
from s3wgdm.regret import (
    comprehensive_utility,
    direct_simplified_gains,
    perceived_utility_units,
    utility,
)
from s3wgdm.tables import (
    AttributeSpec,
    build_nested_subsets,
    extract,
    fuse_dhhflmwa,
    make_table,
    orient_to_concept,
    renormalize_weights,
)

S33 = DHLTScale(3, 3)
TOL = 1e-12

# SHA-256 of the bundled ``decide --out`` report without
# ``metadata.elapsed_seconds``, as the scalar per-level engine wrote it
BUNDLED_REPORT_SHA256 = "020541ebb182c01abc473a4a27a9a00672510cfa8936f0bb4a7c75385807746d"
# SHA-256 of the bundled ``decide`` stdout, and of the bundled ``sweep``
# CSV over SWEEP_GRID (11 x 10 x 3 = 330 points)
BUNDLED_STDOUT_SHA256 = "f53497a48aa058cdd0a554c8a11781542210b5c10f8f7989549aca8d128a4376"
BUNDLED_SWEEP_SHA256 = "fbfae9f48f4f7d8a8ab089009c4a14bc6ee9ff1af8abedfa8f034dbb811d9871"
SWEEP_GRID = ("eta=0:1:0.1", "sigma=0.1:1:0.1", "kappa=0:1:0.5")
# SHA-256 of ``fuse --out`` and of ``baseline`` stdout, on the bundled case
# and on the generated case GENERATED_SHAPE (bench/gen.py's case_dict)
BUNDLED_FUSE_SHA256 = "4748a7e3f99efb2ac31ea540d5b785ec839870a28c011dab248fd973d234c4c0"
BUNDLED_BASELINE_SHA256 = "806443c5ac8739e431c1845d8b41d1a134f1be2fee98c5bad1597d026d977ec9"
GENERATED_SHAPE = {"n": 300, "m": 6, "e": 3, "max_terms": 3, "seed": 1}
GENERATED_FUSE_SHA256 = "f08fca31b394328f02442e8902cdf5108828923ef478f8bc6e64195d8284e2dc"
GENERATED_BASELINE_SHA256 = "7c6d53540e1daef125018899ac96cbff0dc2112fada6f81cec5401468ff878ad"
GEN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def reference_level(index, universe, tables, attrs, z, cfg, params):
    fused = orient_to_concept(fuse_dhhflmwa([extract(t, universe, z) for t in tables]), attrs)
    ids = fused.alternatives
    cells = [[fused.cell(alt, a) for a in fused.attributes] for alt in ids]
    values = np.array([[kernel_similarity(x, y, S33, cfg.sigma) for y in cells]
                       for x in cells])
    granules = cut_granules(SimilarityMatrix(ids=ids, values=values, sigma=cfg.sigma),
                            cfg.kappa)
    weights = renormalize_weights(attrs, z)
    membership = concept_membership(fused, z, weights)
    units = {a: perceived_utility_units(
        [direct_simplified_gains(cells[i][j], params.eta, S33) for i in range(len(ids))],
        params.theta, params.delta) for j, a in enumerate(fused.attributes)}
    probability, utilities, expected = {}, {}, {}
    regions = {POS: set(), BND: set(), NEG: set()}
    for i, (alt, g) in enumerate(zip(ids, granules)):
        probability[alt] = conditional_probability(g, membership)
        utilities[alt] = comprehensive_utility({a: units[a][i] for a in units}, weights)
        expected[alt] = expected_perceived_utility(utilities[alt], probability[alt])
        regions[classify(expected[alt])].add(alt)
    return GranularLevel(
        index=index, universe=ids, z=tuple(z), scores=None,
        granule_size={g.center: len(g) for g in granules},
        probability=probability, utilities=utilities, expected=expected,
        pos=frozenset(regions[POS]), bnd=frozenset(regions[BND]), neg=frozenset(regions[NEG]))


def reference_report(tables, attrs, levels, params):
    subsets = build_nested_subsets(attrs)
    alternatives = tables[0].alternatives
    universe = list(alternatives)
    executed, exit_level = [], {}
    for i, cfg in enumerate(levels, start=1):
        if not universe:
            break
        z = [a for a in tables[0].attributes if a in subsets[i - 1]]
        level = reference_level(i, universe, tables, attrs, z, cfg, params)
        executed.append(level)
        for alt in level.pos | level.neg:
            exit_level[alt] = i
        universe = [a for a in universe if a in level.bnd]
    for alt in universe:
        exit_level[alt] = executed[-1].index
    return DecisionReport(alternatives=alternatives, levels=tuple(executed),
                          exit_level=exit_level)


subscript = st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3))
cell = st.lists(st.builds(DHLT, subscript, subscript), min_size=1, max_size=3).map(DHHFLE)
positive = st.floats(0.05, 1.0)


@st.composite
def cases(draw):
    """Tables with n <= 30, m <= 4, e <= 3; alternatives pick their rows
    from a smaller pool, so duplicate rows are common."""
    n, m, e = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    pool = draw(st.integers(1, n))
    picks = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
    alternatives = [f"x{i + 1}" for i in range(n)]
    attr_ids = [f"a{j + 1}" for j in range(m)]
    raw_w = draw(st.lists(positive, min_size=m, max_size=m))
    aligned = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    attrs = [AttributeSpec(id=a, weight=w / sum(raw_w), align_with_concept=al)
             for a, w, al in zip(attr_ids, raw_w, aligned)]
    raw_e = draw(st.lists(positive, min_size=e, max_size=e))
    tables = []
    for k in range(e):
        rows = draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                             min_size=pool, max_size=pool))
        tables.append(make_table(f"E{k + 1}", raw_e[k] / sum(raw_e), alternatives, attr_ids,
                                 [rows[p] for p in picks], S33))
    kappa = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)))
    sigma = draw(st.floats(0.1, 1.5))
    levels = [LevelConfig(kappa=kappa, sigma=sigma)] * len(build_nested_subsets(attrs))
    params = EngineParams(eta=draw(st.floats(0.0, 1.0)), theta=draw(st.floats(0.05, 0.95)),
                          delta=draw(st.floats(0.0, 1.0)))
    return tables, attrs, levels, params


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_array_path_matches_scalar_reference(case):
    tables, attrs, levels, params = case
    got = run_sequential(tables, attrs, levels, params)
    want = reference_report(tables, attrs, levels, params)
    assert len(got.levels) == len(want.levels)
    for g, w in zip(got.levels, want.levels):
        assert (g.universe, g.z) == (w.universe, w.z)
        assert (g.pos, g.bnd, g.neg) == (w.pos, w.bnd, w.neg)
        assert g.granule_size == w.granule_size
        for alt in g.universe:
            assert abs(g.probability[alt] - w.probability[alt]) <= TOL
            assert np.allclose(g.expected[alt], w.expected[alt], rtol=0.0, atol=TOL)
    assert got.exit_level == want.exit_level
    for upto in range(1, len(got.levels) + 1):
        for key in ("accept", "defer"):
            assert rank(got, key=key, upto=upto) == rank(want, key=key, upto=upto)


def reference_fused(tables):
    """DHHFLMWA cell by cell: each expert's expected value, summed with
    the expert weights in expert order; rows of one-term elements."""
    first = tables[0]
    rows = []
    for i in range(len(first.alternatives)):
        row = []
        for j in range(len(first.attributes)):
            phi = varphi = 0.0
            for t in tables:
                le = linguistic_expected_value(t.cells[i][j]).terms[0]
                phi += t.expert_weight * le.phi
                varphi += t.expert_weight * le.varphi
            row.append(DHHFLE([DHLT(phi, varphi)]))
        rows.append(tuple(row))
    return rows


def reference_oriented(tables, attrs):
    """:func:`reference_fused` with each cell of a column that points away
    from the concept replaced by its mirror."""
    aligned = {a.id: a.align_with_concept for a in attrs}
    return [[cell if aligned[a] else mirror(cell) for a, cell in zip(tables[0].attributes, row)]
            for row in reference_fused(tables)]


def as_means(rows):
    """Rows of one-term elements as an (n, m, 2) subscript array."""
    return np.array([[[c.terms[0].phi, c.terms[0].varphi] for c in row] for row in rows])


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_baseline(tables, attrs, params):
    cells = reference_oriented(tables, attrs)
    weight = {a.id: a.weight for a in attrs}

    def score(i):
        total = 0.0
        for j, attr_id in enumerate(tables[0].attributes):
            b = min(1.0, max(0.0, superior_gradus(cells[i][j], S33)))
            total += weight[attr_id] * (utility(b, params.theta) if params else b)
        return total

    scored = sorted(((score(i), alt) for i, alt in enumerate(tables[0].alternatives)),
                    key=lambda t: (-t[0], t[1]))
    return [alt for _, alt in scored]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cases())
def test_fusion_and_baseline_match_cell_by_cell_reference(case):
    tables, attrs, _, params = case
    got = fuse_dhhflmwa(tables)
    assert same_bits(got.means, as_means(reference_fused(tables)))
    assert same_bits(orient_to_concept(got, attrs).means,
                     as_means(reference_oriented(tables, attrs)))
    assert baseline_full_fusion(tables, attrs) == reference_baseline(tables, attrs, None)
    assert baseline_full_fusion(tables, attrs, params) == \
        reference_baseline(tables, attrs, params)


def test_bundled_report_is_pinned(tmp_path, capsys, sle_case_path, sle_params_path):
    out = tmp_path / "report.json"
    assert cli_main(["decide", "--case", sle_case_path, "--params", sle_params_path,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    del report["metadata"]["elapsed_seconds"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLED_REPORT_SHA256


def test_bundled_stdout_is_pinned(capsys, sle_case_path, sle_params_path):
    assert cli_main(["decide", "--case", sle_case_path, "--params", sle_params_path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUNDLED_STDOUT_SHA256


def test_bundled_sweep_is_pinned(tmp_path, capsys, sle_case_path, sle_params_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path, "--out", str(out)]
    for grid in SWEEP_GRID:
        argv += ["--grid", grid]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_SWEEP_SHA256


def generated_case_path(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "generated.json"
    gen.write_case(str(path), gen.case_dict(**GENERATED_SHAPE))
    return str(path)


def fuse_and_baseline_digests(case_path, tmp_path, capsys):
    out = tmp_path / "fused.json"
    assert cli_main(["fuse", "--case", case_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["baseline", "--case", case_path]) == 0
    stdout = capsys.readouterr().out
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest())


def test_bundled_fuse_and_baseline_are_pinned(tmp_path, capsys, sle_case_path):
    assert fuse_and_baseline_digests(sle_case_path, tmp_path, capsys) == \
        (BUNDLED_FUSE_SHA256, BUNDLED_BASELINE_SHA256)


def test_generated_fuse_and_baseline_are_pinned(tmp_path, capsys):
    assert fuse_and_baseline_digests(generated_case_path(tmp_path), tmp_path, capsys) == \
        (GENERATED_FUSE_SHA256, GENERATED_BASELINE_SHA256)
