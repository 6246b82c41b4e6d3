"""The engine's array path against the scalar reference algebra.

``reference_report`` runs the per-level object pipeline: extract and fuse
the tables at every level, score every pair with ``kernel_similarity``,
cut member sets with ``cut_granules``, and build utilities cell by cell.
The array path must give the same regions and rankings, with
probabilities and expected utilities within 1e-12.  Fusion and the
baseline ranking, which read the tables' mean-subscript arrays, must
equal their cell-by-cell references exactly.  The commands themselves
call none of the reference's oracles.
"""

import ast
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SWEEP_GRID, exit_levels, level_regions, oriented, per_id, universe
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bench_lookups import load_tracer

from s3wgdm import caseio, cli, engine, linguistic, neighborhood, reference, regret, tables
from s3wgdm.caseio import load_case
from s3wgdm.cli import main as cli_main
from s3wgdm.engine import (
    NEG_DIRECTIONS,
    RANK_KEYS,
    EngineParams,
    LevelConfig,
    ScoredTable,
    baseline_full_fusion,
    rank,
    run_sequential,
)
from s3wgdm.linguistic import DHHFLE, DHLT, DHLTScale, superior_gradus
from s3wgdm.neighborhood import membership_degrees, membership_parts
from s3wgdm.reference import (
    SimilarityMatrix,
    classify,
    comprehensive_utility,
    concept_membership,
    conditional_probability,
    cut_granules,
    direct_simplified_gains,
    expected_perceived_utility,
    extract,
    kernel_similarity,
    linguistic_expected_value,
    make_table,
    mirror,
    perceived_utility_units,
    utility,
)
from s3wgdm.regret import REGIONS
from s3wgdm.syntax import parse_dhhfle
from s3wgdm.tables import (
    AttributeSpec,
    build_nested_subsets,
    fuse_dhhflmwa,
    orient_to_concept,
    renormalize_weights,
)

S33 = DHLTScale(3, 3)
TOL = 1e-12

# SHA-256 of the bundled ``decide --out`` report without
# ``metadata.elapsed_seconds``, as the scalar per-level engine wrote it
BUNDLED_REPORT_SHA256 = "020541ebb182c01abc473a4a27a9a00672510cfa8936f0bb4a7c75385807746d"
# SHA-256 of the bundled ``decide`` stdout, and of the bundled ``sweep``
# CSV over SWEEP_GRID
BUNDLED_STDOUT_SHA256 = "f53497a48aa058cdd0a554c8a11781542210b5c10f8f7989549aca8d128a4376"
BUNDLED_SWEEP_SHA256 = "fbfae9f48f4f7d8a8ab089009c4a14bc6ee9ff1af8abedfa8f034dbb811d9871"
# SHA-256 of ``fuse --out`` and of ``baseline`` stdout, on the bundled case
# and on the generated case GENERATED_SHAPE (bench/gen.py's case_dict)
BUNDLED_FUSE_SHA256 = "4748a7e3f99efb2ac31ea540d5b785ec839870a28c011dab248fd973d234c4c0"
BUNDLED_BASELINE_SHA256 = "806443c5ac8739e431c1845d8b41d1a134f1be2fee98c5bad1597d026d977ec9"
GENERATED_SHAPE = {"n": 300, "m": 6, "e": 3, "max_terms": 3, "seed": 1}
GENERATED_FUSE_SHA256 = "f08fca31b394328f02442e8902cdf5108828923ef478f8bc6e64195d8284e2dc"
GENERATED_BASELINE_SHA256 = "7c6d53540e1daef125018899ac96cbff0dc2112fada6f81cec5401468ff878ad"
# SHA-256 of ``validate`` stdout on the bundled and the generated case
BUNDLED_VALIDATE_SHA256 = "9bda6c6ce1322c3b4979c1c1fa8c9f3e845e30ef8ac9e126da226b6296dd9411"
GENERATED_VALIDATE_SHA256 = "6fa2d82bee7ee3ca3d31d1acd8f2bceb2594aecea24bdb885359ecca9c378cad"
# SHA-256 of the generated case's ``decide --out`` report (without
# ``metadata.elapsed_seconds``, re-dumped as above) and of its stdout, with
# the bundled parameters
GENERATED_REPORT_SHA256 = "a5cc015a830d7a8773a592177cc6e77def3c45b85b2716d75972c27cda56c31b"
GENERATED_STDOUT_SHA256 = "9fbeabdfcf8ca919a0fa54fe1167e80ae68a1ec95644de959554c36ae1af43e4"
GEN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "s3wgdm"


def reference_level(index, ids, tables, attrs, z, cfg, params):
    """One level as per-id records: granule size, probability, expected
    utilities and region name."""
    fused = orient_to_concept(fuse_dhhflmwa([extract(t, ids, z) for t in tables]), attrs)
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
    probability, expected, region = {}, {}, {}
    for i, (alt, g) in enumerate(zip(ids, granules)):
        probability[alt] = conditional_probability(g, membership)
        utilities = comprehensive_utility({a: units[a][i] for a in units}, weights)
        expected[alt] = expected_perceived_utility(utilities, probability[alt])
        region[alt] = classify(expected[alt])
    return SimpleNamespace(index=index, universe=list(ids), z=tuple(z),
                           granule_size={g.center: len(g) for g in granules},
                           probability=probability, expected=expected, region=region)


def reference_report(tables, attrs, levels, params):
    subsets = build_nested_subsets(attrs)
    alternatives = tables[0].alternatives
    ids = list(alternatives)
    executed, exit_level = [], {}
    for i, cfg in enumerate(levels, start=1):
        if not ids:
            break
        z = [a for a in tables[0].attributes if a in subsets[i - 1]]
        level = reference_level(i, ids, tables, attrs, z, cfg, params)
        executed.append(level)
        for alt, region in level.region.items():
            if region != "BND":
                exit_level[alt] = i
        ids = [a for a in ids if level.region[a] == "BND"]
    for alt in ids:  # survivors stay deferred
        exit_level[alt] = executed[-1].index
    return SimpleNamespace(alternatives=alternatives, levels=executed, exit_level=exit_level)


def reference_regions_after(ref, upto):
    """Cumulative regions once ``upto`` levels ran: region -> sorted ids."""
    decided = {a: r for level in ref.levels[:upto] for a, r in level.region.items()
               if r != "BND"}
    return {r: sorted(a for a in ref.alternatives if decided.get(a, "BND") == r)
            for r in REGIONS}


def reference_rank(ref, key, neg_direction, upto):
    """Accepted, deferred, rejected; each block by its expected utility
    ``key``, descending (the rejected block ascending with ``"asc"``),
    ties by id.  An alternative's key comes from the level that decided
    it, or the last level it was in."""
    regions = reference_regions_after(ref, upto)
    idx = RANK_KEYS.index(key)

    def level_key(alt):
        lvl = min(ref.exit_level[alt], upto)
        return ref.levels[lvl - 1].expected[alt][idx]

    pos = sorted(regions["POS"], key=lambda a: (-level_key(a), a))
    bnd = sorted(regions["BND"], key=lambda a: (-level_key(a), a))
    neg = sorted(regions["NEG"],
                 key=lambda a: (level_key(a) if neg_direction == "asc" else -level_key(a), a))
    return pos + bnd + neg


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
    fused = oriented(tables, attrs)
    assert same_bits(fused.means, as_means(reference_oriented(tables, attrs)))
    got = run_sequential(ScoredTable(fused, attrs), levels, params)
    want = reference_report(tables, attrs, levels, params)
    assert len(got.levels) == len(want.levels)
    for g, w in zip(got.levels, want.levels):
        assert (universe(got, g), g.z) == (w.universe, w.z)
        assert level_regions(got, g) == {r: {a for a in w.universe if w.region[a] == r}
                                          for r in REGIONS}
        assert per_id(got, g, g.sizes) == w.granule_size
        probability, expected = per_id(got, g, g.pr), per_id(got, g, g.expected)
        for alt in w.universe:
            assert abs(probability[alt] - w.probability[alt]) <= TOL
            assert np.allclose(expected[alt], w.expected[alt], rtol=0.0, atol=TOL)
    assert exit_levels(got) == want.exit_level
    for upto in range(1, len(got.levels) + 1):
        assert got.regions_after(upto) == reference_regions_after(want, upto)
        for key in RANK_KEYS:
            for neg_direction in NEG_DIRECTIONS:
                assert rank(got, key=key, neg_direction=neg_direction, upto=upto) == \
                    reference_rank(want, key, neg_direction, upto)


def reference_fused(tables):
    """DHHFLMWA cell by cell: each expert's expected value, summed with
    the expert weights in expert order and clipped into the scale (rounding
    can carry a sum at the end of the scale just past it); rows of
    one-term elements."""
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
            tau, sigma = first.scale.tau, first.scale.sigma_scale
            row.append(DHHFLE([DHLT(min(max(phi, -tau), tau),
                                    min(max(varphi, -sigma), sigma))]))
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
    oriented = orient_to_concept(got, attrs)
    assert same_bits(oriented.means, as_means(reference_oriented(tables, attrs)))
    table = ScoredTable(oriented, attrs)
    assert baseline_full_fusion(table) == reference_baseline(tables, attrs, None)
    assert baseline_full_fusion(table, params) == \
        reference_baseline(tables, attrs, params)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases(), st.data())
def test_membership_gathered_on_rows_is_bit_identical(case, data):
    """A level's membership limbs are found once over the whole table;
    membership and its split are elementwise, so gathering the limbs on
    any rows equals computing them on those rows' subscripts, bit for bit."""
    tables, attrs, _, _ = case
    fused = oriented(tables, attrs)
    table = ScoredTable(fused, attrs)
    i = data.draw(st.integers(1, len(table.subsets)))
    n = len(fused.alternatives)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                       unique=True)), dtype=np.intp)
    cols, _, weights, parts = table.level(i)
    phi, varphi = fused.subscripts()
    cells = np.ix_(rows, cols)
    want = membership_parts(membership_degrees(phi[cells], varphi[cells], weights, fused.scale))
    assert np.array_equal(parts[rows], want)


def test_bundled_report_is_pinned(tmp_path, capsys, sle_case_path, sle_params_path):
    out = tmp_path / "report.json"
    assert cli_main(["decide", "--case", sle_case_path, "--params", sle_params_path,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    del report["metadata"]["elapsed_seconds"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLED_REPORT_SHA256


@pytest.mark.parametrize("generated, report_sha256, stdout_sha256", [
    (False, BUNDLED_REPORT_SHA256, BUNDLED_STDOUT_SHA256),
    (True, GENERATED_REPORT_SHA256, GENERATED_STDOUT_SHA256),
], ids=["bundled", "generated"])
def test_decide_out_is_the_stdlib_layout(generated, report_sha256, stdout_sha256, tmp_path,
                                         capsys, sle_case_path, sle_params_path):
    """The bytes ``decide --out`` writes, not only the data they hold, are
    the standard library's pretty-printed layout of that data, and that
    data and the text summary keep their pinned bytes."""
    case_path = generated_case_path(tmp_path) if generated else sle_case_path
    out = tmp_path / "report.json"
    assert cli_main(["decide", "--case", case_path, "--params", sle_params_path,
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    del report["metadata"]["elapsed_seconds"]
    pinned = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == report_sha256
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256


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


@pytest.mark.parametrize("generated", [False, True])
def test_table_commands_find_no_level_membership(generated, tmp_path, capsys, monkeypatch,
                                                 sle_case_path):
    """``validate``, ``fuse`` and ``baseline`` read no level's membership:
    with the engine's membership and limb functions replaced by ones that
    raise, each exits 0 with its pinned bytes."""
    def raising(*args, **kwargs):
        raise AssertionError("a table command found a level membership")

    monkeypatch.setattr(engine, "membership_degrees", raising)
    monkeypatch.setattr(engine, "membership_parts", raising)
    case_path = generated_case_path(tmp_path) if generated else sle_case_path
    assert cli_main(["validate", "--case", case_path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        (GENERATED_VALIDATE_SHA256 if generated else BUNDLED_VALIDATE_SHA256)
    assert fuse_and_baseline_digests(case_path, tmp_path, capsys) == (
        (GENERATED_FUSE_SHA256, GENERATED_BASELINE_SHA256) if generated
        else (BUNDLED_FUSE_SHA256, BUNDLED_BASELINE_SHA256))


def test_commands_call_no_oracle(tmp_path, capsys, monkeypatch, sle_case_path,
                                 sle_params_path):
    """``decide``, ``sweep``, ``fuse`` and ``baseline`` run without the
    scalar reference: with every callable it defines replaced by one that
    raises, in :mod:`s3wgdm.reference` and wherever a module re-imports it
    for bench/tracer.py, each keeps its pinned bytes."""
    oracles = {id(obj): name for name, obj in vars(reference).items()
               if callable(obj) and getattr(obj, "__module__", None) == reference.__name__}

    def raising(name):
        def oracle(*args, **kwargs):
            raise AssertionError(f"a command called reference.{name}")
        return oracle

    replaced = set()
    for module in (reference, engine, neighborhood, regret, tables, linguistic, caseio, cli):
        for attr, obj in list(vars(module).items()):
            if id(obj) in oracles:
                monkeypatch.setattr(module, attr, raising(oracles[id(obj)]))
                replaced.add((module.__name__, attr))
    assert ("s3wgdm.engine", "cut_granules") in replaced
    out = tmp_path / "report.json"
    assert cli_main(["decide", "--case", sle_case_path, "--params", sle_params_path,
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    report = json.loads(out.read_text())
    del report["metadata"]["elapsed_seconds"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLED_REPORT_SHA256
    assert hashlib.sha256(stdout.encode()).hexdigest() == BUNDLED_STDOUT_SHA256
    sweep = tmp_path / "sweep.csv"
    argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path, "--out", str(sweep)]
    for grid in SWEEP_GRID:
        argv += ["--grid", grid]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(sweep.read_bytes()).hexdigest() == BUNDLED_SWEEP_SHA256
    assert fuse_and_baseline_digests(sle_case_path, tmp_path, capsys) == \
        (BUNDLED_FUSE_SHA256, BUNDLED_BASELINE_SHA256)


def test_live_modules_import_from_reference_only_for_the_tracer():
    """Outside ``reference.py``, a module imports from ``.reference`` only
    names that bench/tracer.py looks up in that module, and reads none of
    them itself; no module imports ``reference`` whole.  ``reference.py``
    imports from the live modules, never the other way round."""
    tracer = load_tracer()
    looked_up = {}
    for module, attr, _ in tracer.TIMED + tracer.COUNTED:
        looked_up.setdefault(module, set()).add(attr)
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "reference":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        taken = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = "." * node.level + (node.module or "")
                if source in (".reference", "s3wgdm.reference"):
                    assert all(a.asname is None for a in node.names), path.name
                    taken.update(a.name for a in node.names)
                else:
                    assert source not in (".", "s3wgdm") or \
                        "reference" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.Import):
                assert "s3wgdm.reference" not in {a.name for a in node.names}, path.name
        assert taken <= looked_up.get(f"s3wgdm.{path.stem}", set()), path.name
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert not taken & read, path.name


@pytest.mark.parametrize("first", ["engine", "reference"])
def test_engine_and_reference_import_in_either_order(first):
    """``engine`` re-imports oracles from ``reference``, and both read the
    region codes: either module may be the first imported."""
    code = f"import s3wgdm.{first}; from s3wgdm import engine, reference; " \
           "print(reference.classify((0.0, 1.0, 0.0)), engine.extract is reference.extract)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert (run.returncode, run.stdout) == (0, "BND True\n"), run.stderr


def test_reference_does_not_import_engine():
    """The imports run one way, from the live code to the oracles: a fresh
    interpreter that imports ``reference`` has not loaded ``engine``."""
    code = "import sys, s3wgdm.reference; print('s3wgdm.engine' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_imports_come_before_the_first_def_or_class():
    """No module imports anything after its first ``def`` or ``class``,
    at its top level or inside a body: an import cycle cannot hide in a
    late or a lazy import."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        first = min((node.lineno for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))),
                    default=None)
        late = [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and first is not None and node.lineno > first]
        assert not late, (path.name, late)


def test_baseline_out_keeps_the_decide_report(tmp_path, capsys, sle_params_path):
    """``baseline --out`` onto a ``decide`` report ranks with the report's
    parameters, as ``decide`` did, so the report is rewritten unchanged."""
    case_path = generated_case_path(tmp_path)
    out = tmp_path / "report.json"
    assert cli_main(["decide", "--case", case_path, "--params", sle_params_path,
                     "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert cli_main(["baseline", "--case", case_path, "--out", str(out)]) == 0
    ranking = json.loads(before)["baseline_ranking"]
    assert capsys.readouterr().out == "baseline ranking: " + " > ".join(ranking) + "\n"
    assert out.read_bytes() == before


def test_load_builds_no_elements(tmp_path, monkeypatch):
    """Ingest codes each cell, text or structured, and gathers the means
    from the code book: no element is built until one is asked for."""
    path = generated_case_path(tmp_path)
    doc = json.loads(pathlib.Path(path).read_text())
    doc["experts"][0]["table"][0][0] = [{"phi": 1, "varphi": -2}, {"phi": 0, "varphi": 3}]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    built = []
    init = DHHFLE.__init__

    def counting(self, terms):
        built.append(self)
        init(self, terms)

    monkeypatch.setattr(DHHFLE, "__init__", counting)
    for case_path in (path, str(mixed)):
        case = load_case(case_path)
        assert all(t.means.shape == (300, 6, 2) for t in case.experts)
        assert built == []
    assert case.experts[0].cell("x1", "a1").terms == (DHLT(1.0, -2.0), DHLT(0.0, 3.0))
    assert len(built) == 1


def test_cells_match_a_fresh_parse_of_each_text(tmp_path):
    path = generated_case_path(tmp_path)
    doc = json.loads(pathlib.Path(path).read_text())
    case = load_case(path)
    for table, expert in zip(case.experts, doc["experts"], strict=True):
        want = [[parse_dhhfle(text, case.scale).terms for text in row]
                for row in expert["table"]]
        assert [[cell.terms for cell in row] for row in table.cells] == want
        assert [[table.cell(alt, a).terms for a in table.attributes]
                for alt in table.alternatives] == want
