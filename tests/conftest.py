import pathlib

import numpy as np
import pytest

from s3wgdm.caseio import load_case, load_params
from s3wgdm.engine import REGIONS, ScoredTable, run_level
from s3wgdm.linguistic import DHLTScale
from s3wgdm.tables import fuse_dhhflmwa, orient_to_concept

DATA = pathlib.Path(__file__).parent / "data"
# the sweep grid the benchmark runs and the bundled sweep pin covers:
# eta x sigma x kappa = 11 x 10 x 3 = 330 points
SWEEP_GRID = ("eta=0:1:0.1", "sigma=0.1:1:0.1", "kappa=0:1:0.5")


@pytest.fixture(scope="session")
def sle_case_path():
    return str(DATA / "sle_case.json")


@pytest.fixture(scope="session")
def sle_params_path():
    return str(DATA / "sle_params.json")


@pytest.fixture(scope="session")
def sle_case(sle_case_path):
    return load_case(sle_case_path)


@pytest.fixture(scope="session")
def sle_params(sle_params_path):
    return load_params(sle_params_path)


def oriented(tables, attrs):
    """The oriented group table of the expert ``tables``."""
    return orient_to_concept(fuse_dhhflmwa(tables), attrs)


def scored(tables, attrs):
    """The scored group table, the input of every engine entry point."""
    return ScoredTable(oriented(tables, attrs), attrs)


def run_group(rows, table, index, cfgs, params, cfg_ids, param_ids):
    """:func:`run_level` of points that all share one universe, ``rows``."""
    return run_level(rows, table, index, cfgs, params, cfg_ids, param_ids,
                     np.array([0, len(rows)]), np.zeros(len(cfg_ids), dtype=np.intp))


def universe(report, level):
    """A level's universe as alternative ids, in row order."""
    return report.ids(level.rows)


def level_regions(report, level):
    """A level's regions as sets of ids: region name -> set."""
    codes = dict(zip(universe(report, level), level.region.tolist()))
    return {name: {a for a, c in codes.items() if c == code}
            for code, name in enumerate(REGIONS)}


def per_id(report, level, values):
    """A level's per-row values keyed by alternative id; rows of a 2-d
    array become lists."""
    return dict(zip(universe(report, level), values.tolist()))


def exit_levels(report):
    """Alternative id -> the level that decided it, or the last level."""
    return dict(zip(report.alternatives, report.state_after()[1].tolist()))


@pytest.fixture(scope="session")
def sle_group(sle_case):
    return oriented(sle_case.experts, sle_case.attributes)


@pytest.fixture
def sle_table(sle_case, sle_group):
    """The bundled case's scored group table, new to each test, since it
    keeps each level it finds."""
    return ScoredTable(sle_group, sle_case.attributes)


@pytest.fixture(scope="session")
def scale33():
    return DHLTScale(3, 3)
