"""JSON case and parameter files, and the machine-readable run report."""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Any, Optional, Sequence

import numpy as np

from .engine import (
    NEG_DIRECTIONS,
    RANK_KEYS,
    DecisionReport,
    EngineParams,
    LevelConfig,
    rank,
)
from .linguistic import DHLTScale
from .regret import REGIONS
from .syntax import TERM, CodeBook, format_subscript
from .tables import (
    WEIGHT_TOL,
    AttributeSpec,
    ExpertDecisionTable,
    FusedDecisionTable,
    build_nested_subsets,
)

# stay importable here, where bench/tracer.py looks them up
from .syntax import format_dhhfle, parse_dhhfle  # noqa: F401

REPORT_SCHEMA = "s3wgdm-report/1"
# cells of an expert table coded per bulk pass; a pass holds all the term
# texts of its chunk at once, so chunking bounds its memory
BULK_CELLS = 1024
# the keys a case file may hold: top level, scale, each attribute and expert
CASE_KEYS = ("scale", "alternatives", "attributes", "experts")
SCALE_KEYS = ("tau", "sigma_scale")
ATTRIBUTE_KEYS = ("id", "weight", "kind", "align_with_concept")
EXPERT_KEYS = ("id", "weight", "table")
# the keys a params file may hold, at the top level, in each level and in rank
PARAMS_KEYS = tuple(f.name for f in fields(EngineParams)) + (
    "levels", "rank", "monotonicity_override")
LEVEL_KEYS = ("kappa", "sigma")
RANK_OPTION_KEYS = ("key", "neg_direction")


class CaseFormatError(ValueError):
    """The case or parameter file failed validation; carries all problems."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class CaseFile:
    scale: DHLTScale
    alternatives: tuple
    attributes: tuple  # AttributeSpec
    experts: tuple     # ExpertDecisionTable

    @property
    def n(self) -> int:
        return len(self.alternatives)

    @property
    def m(self) -> int:
        return len(self.attributes)

    @property
    def e(self) -> int:
        return len(self.experts)


@dataclass(frozen=True)
class RankOptions:
    key: str = RANK_KEYS[0]
    neg_direction: str = NEG_DIRECTIONS[0]


@dataclass(frozen=True)
class ParamsFile:
    params: EngineParams
    levels: tuple  # LevelConfig
    rank: RankOptions = RankOptions()
    monotonicity_override: bool = False


def _cell_code(raw: Any, book: CodeBook) -> int:
    """The code of one cell in this document's book."""
    if isinstance(raw, str):
        return book.text(raw)
    if isinstance(raw, list) and raw:
        return book.pairs(_structured_terms(raw))
    raise ValueError("cell must be a term string or a non-empty term array")


def _entry_ok(raw: Any, known: tuple, needs: str, where: str, problems: list) -> bool:
    """Whether an attribute or expert entry holds a string id and a weight."""
    if isinstance(raw, Mapping):
        problems += _unknown_keys(raw, known, f"{where}: ")
    if not isinstance(raw, Mapping) or "id" not in raw or "weight" not in raw:
        problems.append(f"{where}: needs {needs}")
        return False
    if not isinstance(raw["id"], str):
        problems.append(f"{where}: id must be a string, got {raw['id']!r}")
        return False
    return True


def _structured_terms(raw: list):
    """A structured cell's (phi, varphi) pairs, each read as it is drawn."""
    for item in raw:
        if not isinstance(item, Mapping) or "phi" not in item or "varphi" not in item:
            raise ValueError("structured cells need phi/varphi entries")
        yield _number(item, "phi"), _number(item, "varphi")


def _number(raw: Mapping, key: str, default: Any = None) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _whole_number(raw: Mapping, key: str) -> int:
    value = _number(raw, key, 0)
    if not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def validate_case_dict(data: Any) -> tuple:
    """Check the whole document, returning (case_or_None, problem list)."""
    problems: list = []
    if not isinstance(data, Mapping):
        return None, ["top level must be a JSON object"]
    problems += _unknown_keys(data, CASE_KEYS, "")

    scale = None
    raw_scale = data.get("scale")
    if not isinstance(raw_scale, Mapping):
        problems.append("missing or malformed 'scale'")
    else:
        problems += _unknown_keys(raw_scale, SCALE_KEYS, "scale: ")
        try:
            scale = DHLTScale(_whole_number(raw_scale, "tau"),
                              _whole_number(raw_scale, "sigma_scale"))
        except (OverflowError, ValueError) as exc:
            problems.append(f"scale: {exc}")

    alternatives = data.get("alternatives")
    # refused alternatives are their own problem: no table's row count is checked
    alts_ok = (isinstance(alternatives, list) and bool(alternatives)
               and all(map(isinstance, alternatives, repeat(str))))
    if not alts_ok:
        problems.append("'alternatives' must be a non-empty list of ids")
    elif len(set(alternatives)) != len(alternatives):
        problems.append("alternative ids are not unique")

    attrs: list = []
    raw_attrs = data.get("attributes")
    if not isinstance(raw_attrs, list) or not raw_attrs:
        problems.append("'attributes' must be a non-empty list")
        raw_attrs = []
    for k, raw in enumerate(raw_attrs):
        where = f"attributes[{k}]"
        if not _entry_ok(raw, ATTRIBUTE_KEYS, "'id' and 'weight'", where, problems):
            continue
        align = raw.get("align_with_concept", True)
        if not isinstance(align, bool):
            problems.append(f"{where}: align_with_concept must be true or false, got {align!r}")
            continue
        try:
            attrs.append(AttributeSpec(
                id=raw["id"],
                weight=_number(raw, "weight"),
                kind=raw.get("kind", "benefit"),
                align_with_concept=align,
            ))
        except (OverflowError, TypeError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
    ids = [a.id for a in attrs]
    if len(set(ids)) != len(ids):
        problems.append("attribute ids are not unique")
    # a bad attribute entry is its own problem; the weight sum and the
    # tables are not checked against the shortened list
    attrs_ok = len(attrs) == len(raw_attrs)
    if attrs and attrs_ok:
        total = sum(a.weight for a in attrs)
        if abs(total - 1.0) > WEIGHT_TOL:
            problems.append(f"attribute weights sum to {total:.6g}, expected 1")

    experts: list = []
    raw_experts = data.get("experts")
    if not isinstance(raw_experts, list) or not raw_experts:
        problems.append("'experts' must be a non-empty list")
        raw_experts = []
    expert_ids = []
    expert_weights: list = []
    book = CodeBook(scale) if scale is not None else None
    for k, raw in enumerate(raw_experts):
        where = f"experts[{k}]"
        if not _entry_ok(raw, EXPERT_KEYS, "'id', 'weight' and 'table'", where, problems):
            continue
        expert_ids.append(raw["id"])
        try:
            weight = _number(raw, "weight")
        except (OverflowError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
            continue
        expert_weights.append(weight)
        table = raw.get("table")
        if not isinstance(table, list) or (alts_ok and len(table) != len(alternatives)):
            problems.append(f"{where}: table must have one row per alternative")
            continue
        m = len(raw_attrs)
        shaped = len(table)  # the rows before the first misshapen one
        if set(map(type, table)) != {list} or set(map(len, table)) != {m}:
            shaped = next((i for i, row in enumerate(table)
                           if not isinstance(row, list) or len(row) != m), shaped)
        before = len(problems)
        codes = [np.empty(0, np.intp)]  # a table of no rows still makes an array
        step = max(1, BULK_CELLS // max(1, m))  # whole rows of at most BULK_CELLS cells
        # without a scale, only the table's shape is checked
        for start in range(0, shaped if book is not None else 0, step):
            chunk = table[start:min(start + step, shaped)]
            found = book.code_texts(list(chain.from_iterable(chunk)))
            if found is None:  # refused: read cell by cell, to locate each problem
                found = []
                for i, row in enumerate(chunk, start):
                    for j, raw_cell in enumerate(row):
                        try:
                            found.append(_cell_code(raw_cell, book))
                        except (OverflowError, TypeError, ValueError) as exc:
                            problems.append(f"{where}.table[{i}][{j}]: {exc}")
            codes.append(found)
        if shaped < len(table):
            problems.append(f"{where}: row {shaped} must have one cell per attribute")
        if len(problems) == before and book is not None and alts_ok and attrs and attrs_ok:
            try:
                experts.append(ExpertDecisionTable(
                    expert_id=raw["id"], expert_weight=weight,
                    alternatives=tuple(alternatives), attributes=tuple(ids),
                    codes=np.concatenate(codes).reshape(len(alternatives), m), book=book))
            except (TypeError, ValueError) as exc:
                problems.append(f"{where}: {exc}")
    if len(set(expert_ids)) != len(expert_ids):
        problems.append("expert ids are not unique")
    if expert_weights and len(expert_weights) == len(raw_experts):
        total = sum(expert_weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            problems.append(f"expert weights sum to {total:.6g}, expected 1")

    if problems:
        return None, problems
    book.release_texts()
    case = CaseFile(scale=scale, alternatives=tuple(alternatives),
                    attributes=tuple(attrs), experts=tuple(experts))
    return case, []


def load_case(path: str) -> CaseFile:
    return _load(path, validate_case_dict)


def _load(path: str, validate) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise CaseFormatError([f"invalid JSON: {exc}"]) from exc
    value, problems = validate(data)
    if problems:
        raise CaseFormatError(problems)
    return value


def _unknown_keys(raw: Mapping, known: tuple, where: str) -> list:
    return [f"{where}unknown key {key!r}, expected one of {', '.join(known)}"
            for key in raw if key not in known]


def validate_params_dict(data: Any) -> tuple:
    problems: list = []
    if not isinstance(data, Mapping):
        return None, ["top level must be a JSON object"]
    problems += _unknown_keys(data, PARAMS_KEYS, "")
    engine = {}
    for field in fields(EngineParams):
        try:  # each field on its own, beside the defaults of the others
            engine[field.name] = _number(data, field.name, field.default)
            EngineParams(**{field.name: engine[field.name]})
        except (OverflowError, TypeError, ValueError) as exc:
            problems.append(f"parameters: {exc}")

    levels: list = []
    raw_levels = data.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        problems.append("'levels' must be a non-empty list")
        raw_levels = []
    for k, raw in enumerate(raw_levels):
        if not isinstance(raw, Mapping):
            problems.append(f"levels[{k}]: must be an object with kappa and sigma")
            continue
        problems += _unknown_keys(raw, LEVEL_KEYS, f"levels[{k}]: ")
        try:
            levels.append(LevelConfig(kappa=_number(raw, "kappa", 1.0),
                                      sigma=_number(raw, "sigma", 0.7)))
        except (OverflowError, TypeError, ValueError) as exc:
            problems.append(f"levels[{k}]: {exc}")

    raw_rank = data.get("rank", {})
    if not isinstance(raw_rank, Mapping):
        problems.append(f"rank must be an object with key and neg_direction, got {raw_rank!r}")
        raw_rank = {}
    problems += _unknown_keys(raw_rank, RANK_OPTION_KEYS, "rank: ")
    key = raw_rank.get("key", RankOptions.key)
    neg = raw_rank.get("neg_direction", RankOptions.neg_direction)
    if key not in RANK_KEYS:
        problems.append(f"rank.key must be {' or '.join(map(repr, RANK_KEYS))}, got {key!r}")
    if neg not in NEG_DIRECTIONS:
        problems.append(f"rank.neg_direction must be {' or '.join(map(repr, NEG_DIRECTIONS))}, "
                        f"got {neg!r}")
    override = data.get("monotonicity_override", False)
    if not isinstance(override, bool):
        problems.append(f"monotonicity_override must be true or false, got {override!r}")

    if problems:
        return None, problems
    return ParamsFile(
        params=EngineParams(**engine),
        levels=tuple(levels),
        rank=RankOptions(key=key, neg_direction=neg),
        monotonicity_override=override,
    ), []


def load_params(path: str) -> ParamsFile:
    return _load(path, validate_params_dict)


def case_summary(case: CaseFile) -> dict:
    subsets = build_nested_subsets(case.attributes)
    ordered = [sorted(level) for level in subsets.levels]
    return {
        "alternatives": case.n,
        "attributes": case.m,
        "experts": case.e,
        "levels": len(subsets),
        "nested_subsets": ordered,
    }


@dataclass(frozen=True, eq=False)
class TextGrid:
    """A grid of strings: cell ``[i][j]`` is ``template`` with its ``%s``
    slots filled by the ``names`` that ``index[i, j]`` picks.  A table
    whose cells repeat few distinct parts is held, and written by
    :func:`dump_json`, without a string per cell."""

    template: str
    names: tuple
    index: np.ndarray  # (rows, columns, slots) positions in names

    def tolist(self) -> list:
        """The grid as lists of strings, row after row."""
        n, m, slots = self.index.shape
        parts = np.array(self.names, dtype=object)[self.index.reshape(-1, slots)].tolist()
        cells = [self.template % tuple(p) for p in parts]
        return [cells[i * m:(i + 1) * m] for i in range(n)]


def fused_table_dict(fused: FusedDecisionTable) -> dict:
    n, m = len(fused.alternatives), len(fused.attributes)
    # one text per distinct subscript, told apart by bit pattern: -0.0 and
    # 0.0 compare equal but print differently
    bits, index = np.unique(np.ascontiguousarray(fused.means, dtype=float).view(np.int64),
                            return_inverse=True)
    return {
        "alternatives": list(fused.alternatives),
        "attributes": list(fused.attributes),
        "experts": list(fused.expert_ids),
        "expert_weights": list(fused.expert_weights),
        "cells": TextGrid("{" + TERM + "}", tuple(map(format_subscript, bits.view(float).tolist())),
                          index.reshape(n, m, 2)),
    }


def report_dict(case: CaseFile, spec: ParamsFile, report: DecisionReport,
                baseline: Optional[Sequence[str]] = None,
                metadata: Optional[dict] = None) -> dict:
    levels = []
    for level in report.levels:
        ids = report.ids(level.rows)  # universe order, which the text summary prints in
        accept, defer, reject = level.expected.T.tolist()
        levels.append({
            "index": level.index,
            "attributes": list(level.z),
            "kappa": spec.levels[level.index - 1].kappa,
            "sigma": spec.levels[level.index - 1].sigma,
            "universe": ids,
            "conditional_probability": dict(zip(ids, level.pr.tolist())),
            "expected_utility": dict(zip(ids, [{"accept": a, "defer": d, "reject": r}
                                               for a, d, r in zip(accept, defer, reject)])),
            "regions": report.regions(level.rows, level.region),
            # the state after this level is built once, for both of these
            "cumulative_regions": report.regions_after(level.index),
            "ranking_after": rank(report, key=spec.rank.key,
                                  neg_direction=spec.rank.neg_direction,
                                  upto=level.index),
        })
    exit_level = report.state_after()[1][report.by_id].tolist()
    out = {
        "schema": REPORT_SCHEMA,
        "case": {"alternatives": case.n, "attributes": case.m, "experts": case.e},
        "parameters": {
            "eta": spec.params.eta,
            "theta": spec.params.theta,
            "delta": spec.params.delta,
            "levels": [{"kappa": c.kappa, "sigma": c.sigma} for c in spec.levels],
            "rank": {"key": spec.rank.key, "neg_direction": spec.rank.neg_direction},
            "monotonicity_override": spec.monotonicity_override,
        },
        "levels": levels,
        "final": {
            # after the last level, already computed as its cumulative state and rank
            "regions": {r: list(ids) for r, ids in levels[-1]["cumulative_regions"].items()},
            "exit_level": dict(zip(report.ids(report.by_id), exit_level)),
            "ranking": list(levels[-1]["ranking_after"]),
        },
        "metadata": metadata or {},
    }
    if baseline is not None:
        out["baseline_ranking"] = list(baseline)
    return out


def validate_report_dict(data: Any) -> list:
    """Structural re-check of an emitted report; returns problems."""
    problems = []
    if not isinstance(data, Mapping):
        return ["report must be a JSON object"]
    if data.get("schema") != REPORT_SCHEMA:
        problems.append(f"unexpected schema marker {data.get('schema')!r}")
    for key in ("case", "parameters", "levels", "final", "metadata"):
        if key not in data:
            problems.append(f"missing report key {key!r}")
    final = data.get("final")
    if isinstance(final, Mapping):
        for key in ("regions", "exit_level", "ranking"):
            if key not in final:
                problems.append(f"missing final.{key}")
    levels = data.get("levels")
    if isinstance(levels, list):
        n = data.get("case", {}).get("alternatives")
        for level in levels:
            regions = level.get("cumulative_regions", {})
            covered = sum(len(regions.get(r, [])) for r in REGIONS)
            if n is not None and covered != n:
                problems.append(
                    f"level {level.get('index')}: cumulative regions cover "
                    f"{covered} of {n} alternatives")
    return problems


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(data, fh)


def dump_json(data: Any, fh) -> None:
    """The one JSON layout every command writes: byte for byte ``json.dump``
    with ``indent=2, sort_keys=True, allow_nan=False``, then a newline.
    Each container of scalars is one call to CPython's C encoder and goes
    out as one chunk, each table (see :func:`_table`) one call and slices
    of ``BULK_CELLS`` leaves, and each :class:`TextGrid` slices of
    ``BULK_CELLS`` cells (see :func:`_grid`); the document is never held
    as one string."""
    fh.writelines(_chunks(data, 0, ""))
    fh.write("\n")


_SCALARS = frozenset((str, int, float, bool, type(None)))
# a flat list's items with NUL between them: no JSON text holds a raw NUL,
# since the encoder escapes it, so the text splits back into one per item
_LEAVES = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", "\0", True, False, False)


@functools.lru_cache(maxsize=None)
def _layout(depth: int) -> tuple:
    """The encoder of a container at ``depth``, whose item separator
    carries its items' indent; that indent; its closing bracket's."""
    inner = "\n" + "  " * (depth + 1)
    return (c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                           ": ", "," + inner, True, False, False), inner, inner[:-2])


def _chunks(obj: Any, depth: int, lead: str):
    """``obj``'s text at ``depth``, after ``lead``."""
    if isinstance(obj, TextGrid):
        yield from _grid(obj, depth, lead)
        return
    encode, inner, outer = _layout(depth)
    is_dict = isinstance(obj, dict)
    container = is_dict or isinstance(obj, (list, tuple))
    kinds = set(map(type, obj.values() if is_dict else obj)) if container else _SCALARS
    if kinds <= _SCALARS:
        # the item separator indents the items; only the brackets need new lines
        text = "".join(encode(obj, 0))
        yield lead + (text[0] + inner + text[1:-1] + outer + text[-1] if container and obj
                      else text)
        return
    table = _table(obj) if is_dict and kinds == {dict} else None
    if table is not None:
        names, leaves = table
        parts = "".join(_LEAVES(leaves, 0))[1:-1].split("\0")
        field = "," + _layout(depth + 1)[1]
        entry = inner + "%s: {" + "".join(  # a key text may hold a % sign
            field + encode_basestring_ascii(name).replace("%", "%%") + ": %s"
            for name in names)[1:] + inner + "}"
        width = len(names) + 1
        step = max(1, BULK_CELLS // width) * width  # whole entries of at most BULK_CELLS leaves
        lead += "{"
        for start in range(0, len(parts), step):
            chunk = tuple(parts[start:start + step])
            yield lead + ",".join([entry] * (len(chunk) // width)) % chunk
            lead = ","
        yield outer + "}"
        return
    lead += "{" if is_dict else "["
    items = (((_key(k) + ": ", v) for k, v in sorted(obj.items())) if is_dict
             else (("", v) for v in obj))
    for prefix, value in items:
        yield from _chunks(value, depth + 1, lead + inner + prefix)
        lead = ","
    yield outer + ("}" if is_dict else "]")


def _grid(grid: TextGrid, depth: int, lead: str):
    """``grid``'s text at ``depth``, after ``lead``: its template and each
    distinct name escaped once, then one ``%`` fill per slice of whole rows
    of at most ``BULK_CELLS`` cells.  Escaping goes character by character,
    so the escaped parts put together are the escaped cell."""
    n, m = grid.index.shape[:2]
    if not n:
        yield lead + "[]"
        return
    inner, outer = _layout(depth)[1:]
    field = _layout(depth + 1)[1]
    cell = encode_basestring_ascii(grid.template)
    row = inner + ("[" + field + ("," + field).join([cell] * m) + inner + "]" if m else "[]")
    names = np.array([encode_basestring_ascii(name)[1:-1] for name in grid.names], dtype=object)
    step = max(1, BULK_CELLS // max(1, m))
    lead += "["
    for start in range(0, n, step):
        rows = grid.index[start:start + step]
        yield lead + ",".join([row] * len(rows)) % tuple(names[rows.reshape(-1)].tolist())
        lead = ","
    yield outer + "]"


def _table(obj: dict) -> Optional[tuple]:
    """A dict whose values are non-empty dicts of one set of str keys,
    holding only scalars, as its sorted inner keys and its leaves: per
    entry in key order, the key's text, then its values in inner key
    order.  None for any other dict of dicts."""
    first = next(iter(obj.values()))
    if not first or set(map(type, first)) != {str} or set(map(len, obj.values())) != {len(first)}:
        return None
    names = sorted(first)
    keys = sorted(obj)
    values = list(map(obj.__getitem__, keys))
    try:  # a value of the right length that lacks a key has another key set
        columns = [list(map(itemgetter(name), values)) for name in names]
    except KeyError:
        return None
    leaves = list(chain.from_iterable(zip(map(_key_text, keys), *columns)))
    return (names, leaves) if set(map(type, leaves)) <= _SCALARS else None


def _key_text(key: Any) -> str:
    """A dict key as the string ``json`` writes it as, before quoting."""
    if isinstance(key, str):
        return key
    if not isinstance(key, (int, float, type(None))):  # a bool is an int
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return "".join(_layout(0)[0](key, 0))


def _key(key: Any) -> str:
    """A dict key's text; other keys than strings convert as ``json`` converts them."""
    return encode_basestring_ascii(_key_text(key))
