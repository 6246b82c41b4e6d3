"""JSON case and parameter files, and the machine-readable run report."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .engine import DecisionReport, EngineParams, LevelConfig, rank
from .linguistic import DHHFLE, DHLT, DHLTScale
from .syntax import format_term, parse_dhhfle
from .tables import (
    WEIGHT_TOL,
    AttributeSpec,
    FusedDecisionTable,
    build_nested_subsets,
    make_table,
)

# stays importable here, where bench/tracer.py looks it up
from .syntax import format_dhhfle  # noqa: F401

REPORT_SCHEMA = "s3wgdm-report/1"


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
    key: str = "accept"
    neg_direction: str = "desc"


@dataclass(frozen=True)
class ParamsFile:
    params: EngineParams
    levels: tuple  # LevelConfig
    rank: RankOptions = RankOptions()
    monotonicity_override: bool = False


def _parse_cell(raw: Any, scale: DHLTScale, parsed: dict, terms: dict) -> DHHFLE:
    """One cell; ``parsed`` maps each cell text already parsed in this
    document to its (immutable) element, so repeated texts parse once, and
    ``terms`` is :func:`parse_dhhfle`'s term cache for this document.
    Failures are not stored: each bad occurrence raises on its own."""
    if isinstance(raw, str):
        cell = parsed.get(raw)
        if cell is None:
            cell = parsed[raw] = parse_dhhfle(raw, scale, terms)
        return cell
    if isinstance(raw, list) and raw:
        built = []
        for item in raw:
            if not isinstance(item, Mapping) or "phi" not in item or "varphi" not in item:
                raise ValueError("structured cells need phi/varphi entries")
            phi, varphi = _number(item, "phi"), _number(item, "varphi")
            scale.check(phi, varphi)
            built.append(DHLT(phi, varphi))
        return DHHFLE(built)
    raise ValueError("cell must be a term string or a non-empty term array")


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

    scale = None
    raw_scale = data.get("scale")
    if not isinstance(raw_scale, Mapping):
        problems.append("missing or malformed 'scale'")
    else:
        try:
            scale = DHLTScale(_whole_number(raw_scale, "tau"),
                              _whole_number(raw_scale, "sigma_scale"))
        except (OverflowError, ValueError) as exc:
            problems.append(f"scale: {exc}")

    alternatives = data.get("alternatives")
    if (not isinstance(alternatives, list) or not alternatives
            or not all(isinstance(a, str) for a in alternatives)):
        problems.append("'alternatives' must be a non-empty list of ids")
        alternatives = []
    if len(set(alternatives)) != len(alternatives):
        problems.append("alternative ids are not unique")

    attrs: list = []
    raw_attrs = data.get("attributes")
    if not isinstance(raw_attrs, list) or not raw_attrs:
        problems.append("'attributes' must be a non-empty list")
        raw_attrs = []
    for k, raw in enumerate(raw_attrs):
        where = f"attributes[{k}]"
        if not isinstance(raw, Mapping) or "id" not in raw or "weight" not in raw:
            problems.append(f"{where}: needs 'id' and 'weight'")
            continue
        align = raw.get("align_with_concept", True)
        if not isinstance(align, bool):
            problems.append(f"{where}: align_with_concept must be true or false, got {align!r}")
            continue
        try:
            attrs.append(AttributeSpec(
                id=str(raw["id"]),
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
    parsed: dict = {}  # cell text -> element, for this document only
    terms: dict = {}   # term text -> term, for this document only
    for k, raw in enumerate(raw_experts):
        where = f"experts[{k}]"
        if not isinstance(raw, Mapping) or "id" not in raw or "weight" not in raw:
            problems.append(f"{where}: needs 'id', 'weight' and 'table'")
            continue
        expert_ids.append(str(raw["id"]))
        try:
            weight = _number(raw, "weight")
        except (OverflowError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
            continue
        expert_weights.append(weight)
        table = raw.get("table")
        if not isinstance(table, list) or len(table) != len(alternatives):
            problems.append(f"{where}: table must have one row per alternative")
            continue
        rows = []
        ok = True
        for i, raw_row in enumerate(table):
            if not isinstance(raw_row, list) or len(raw_row) != len(raw_attrs):
                problems.append(f"{where}: row {i} must have one cell per attribute")
                ok = False
                break
            try:  # a row of texts parsed before resolves at once
                rows.append([parsed[raw_cell] for raw_cell in raw_row])
                continue
            except (KeyError, TypeError):  # a new text, or an unhashable cell
                pass
            row = []
            for j, raw_cell in enumerate(raw_row):
                cell = None
                if scale is not None:
                    try:
                        cell = _parse_cell(raw_cell, scale, parsed, terms)
                    except (OverflowError, TypeError, ValueError) as exc:
                        problems.append(f"{where}.table[{i}][{j}]: {exc}")
                if cell is None:
                    ok = False
                row.append(cell)
            rows.append(row)
        if ok and scale is not None and attrs and attrs_ok:
            try:
                experts.append(make_table(
                    expert_id=str(raw["id"]), expert_weight=weight,
                    alternatives=alternatives, attributes=ids,
                    rows=rows, scale=scale))
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
    case = CaseFile(scale=scale, alternatives=tuple(alternatives),
                    attributes=tuple(attrs), experts=tuple(experts))
    return case, []


def load_case(path: str) -> CaseFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CaseFormatError([f"invalid JSON: {exc}"]) from exc
    case, problems = validate_case_dict(data)
    if problems:
        raise CaseFormatError(problems)
    return case


def validate_params_dict(data: Any) -> tuple:
    problems: list = []
    if not isinstance(data, Mapping):
        return None, ["top level must be a JSON object"]
    params = None
    try:
        params = EngineParams(eta=_number(data, "eta", 0.6), theta=_number(data, "theta", 0.88),
                              delta=_number(data, "delta", 0.3))
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
        try:
            levels.append(LevelConfig(kappa=_number(raw, "kappa", 1.0),
                                      sigma=_number(raw, "sigma", 0.7)))
        except (OverflowError, TypeError, ValueError) as exc:
            problems.append(f"levels[{k}]: {exc}")

    raw_rank = data.get("rank", {})
    key = raw_rank.get("key", "accept") if isinstance(raw_rank, Mapping) else "accept"
    neg = raw_rank.get("neg_direction", "desc") if isinstance(raw_rank, Mapping) else "desc"
    if key not in ("accept", "defer"):
        problems.append(f"rank.key must be 'accept' or 'defer', got {key!r}")
    if neg not in ("desc", "asc"):
        problems.append(f"rank.neg_direction must be 'desc' or 'asc', got {neg!r}")
    override = data.get("monotonicity_override", False)
    if not isinstance(override, bool):
        problems.append(f"monotonicity_override must be true or false, got {override!r}")

    if problems:
        return None, problems
    return ParamsFile(
        params=params,
        levels=tuple(levels),
        rank=RankOptions(key=key, neg_direction=neg),
        monotonicity_override=override,
    ), []


def load_params(path: str) -> ParamsFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CaseFormatError([f"invalid JSON: {exc}"]) from exc
    params, problems = validate_params_dict(data)
    if problems:
        raise CaseFormatError(problems)
    return params


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


def fused_table_dict(fused: FusedDecisionTable) -> dict:
    return {
        "alternatives": list(fused.alternatives),
        "attributes": list(fused.attributes),
        "experts": list(fused.expert_ids),
        "expert_weights": list(fused.expert_weights),
        "cells": [["{" + format_term(phi, varphi) + "}" for phi, varphi in row]
                  for row in fused.means.tolist()],
    }


def report_dict(case: CaseFile, spec: ParamsFile, report: DecisionReport,
                baseline: Optional[Sequence[str]] = None,
                metadata: Optional[dict] = None) -> dict:
    levels = []
    for level in report.levels:
        levels.append({
            "index": level.index,
            "attributes": list(level.z),
            "kappa": spec.levels[level.index - 1].kappa,
            "sigma": spec.levels[level.index - 1].sigma,
            "universe": list(level.universe),
            "conditional_probability": {a: level.probability[a] for a in level.universe},
            "expected_utility": {
                a: {"accept": level.expected[a][0],
                    "defer": level.expected[a][1],
                    "reject": level.expected[a][2]}
                for a in level.universe},
            "regions": {
                "POS": sorted(level.pos),
                "BND": sorted(level.bnd),
                "NEG": sorted(level.neg)},
            "cumulative_regions": report.regions_after(level.index),
            "ranking_after": rank(report, key=spec.rank.key,
                                  neg_direction=spec.rank.neg_direction,
                                  upto=level.index),
        })
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
            "regions": report.regions_after(len(report.levels)),
            "exit_level": dict(sorted(report.exit_level.items())),
            # rank after the last level, already computed as its ranking_after
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
            covered = sum(len(regions.get(r, [])) for r in ("POS", "BND", "NEG"))
            if n is not None and covered != n:
                problems.append(
                    f"level {level.get('index')}: cumulative regions cover "
                    f"{covered} of {n} alternatives")
    return problems


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
