"""Seeded query stream for ``slide_query`` and its SQLite reference texts.

Each item carries the text sent to the guard and, unless the guard must
reject it, the equivalent SQLite text that gives the expected rows. The
SQLite texts spell out the engine's pinned semantics: nulls sort last in
both directions (``x IS NULL, x``), ties keep input order (``cell_id``,
which ascends in file order), and results without ORDER BY come back in
input order. The stream avoids the documented divergences: no ``/`` and no
``ROUND``.

A round is the five shapes, the aggregate one carrying a defect that repair
must fix, plus one hostile input the guard must reject. The benchmark runs
whole rounds, so every run sees the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHAPES = ("filter", "group", "aggregate", "topk", "star")
REPAIR_KINDS = ("keyword_fix", "identifier_fix", "quote_fix", "clause_drop")
REJECT_STAGES = ("sanitize", "parse", "schema", "repair_exhausted")
# Even and odd rounds take these in turn. They fix what decides the amount
# of work (the column a top-k sorts, the cell type an aggregate keeps), so
# that every seed does the same work.
_TOPK_ORDERS = (("area", "DESC"), ("perimeter", "ASC"))
_AGGREGATE_TYPES = ("neoplastic", "epithelial")


@dataclass(frozen=True)
class QueryItem:
    shape: str  # one of SHAPES, or "hostile"
    text: str
    reference_sql: str | None  # None when the guard must reject
    repair_kind: str | None = None  # expected single repair action
    reject_stage: str | None = None  # expected rejection stage


def _num(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 2)


def _filter(rng, pass_index=0):
    low = _num(rng, 380.0, 400.0)
    where = f"area BETWEEN {low} AND {round(low + 40.0, 2)} AND circularity > {_num(rng, 0.3, 0.6)}"
    sql = f"SELECT cell_id, cell_type, area, perimeter FROM cells WHERE {where}"
    return sql, sql + " ORDER BY cell_id"


def _group(rng, pass_index=0):
    sql = (
        "SELECT cell_type, COUNT(*) AS n, AVG(area) AS mean_area, "
        "MAX(perimeter) AS max_perimeter FROM cells "
        f"WHERE mean_intensity > {_num(rng, 40.0, 60.0)} GROUP BY cell_type ORDER BY cell_type"
    )
    return sql, sql


def _aggregate(rng, pass_index=0):
    cell_type = _AGGREGATE_TYPES[pass_index]
    sql = (
        "SELECT AVG(area) AS mean_area, STDDEV(perimeter) AS sd_perimeter, "
        "MIN(eccentricity) AS min_eccentricity, COUNT(DISTINCT cell_type) AS n_types "
        f"FROM cells WHERE cell_type = '{cell_type}' AND glcm_contrast > {_num(rng, 0.5, 1.5)}"
    )
    return sql, sql


def _topk(rng, pass_index=0):
    column, direction = _TOPK_ORDERS[pass_index]
    k = rng.randrange(10, 200)
    sql = f"SELECT cell_id, cell_type, {column} FROM cells ORDER BY {column} {direction} LIMIT {k}"
    reference = (
        f"SELECT cell_id, cell_type, {column} FROM cells "
        f"ORDER BY {column} IS NULL, {column} {direction}, cell_id LIMIT {k}"
    )
    return sql, reference


def _star(rng, pass_index=0):
    x = _num(rng, 0.0, 4000.0)
    sql = (
        f"SELECT * FROM cells WHERE centroid_x BETWEEN {x} AND {round(x + 60.0, 2)} "
        f"AND centroid_y < {_num(rng, 1000.0, 4000.0)}"
    )
    return sql, sql + " ORDER BY cell_id"


_BUILDERS = {"filter": _filter, "group": _group, "aggregate": _aggregate,
             "topk": _topk, "star": _star}


def _defective(rng: random.Random, kind: str, pass_index: int) -> QueryItem:
    """The round's aggregate query with one defect of ``kind``; repair
    restores the reference query exactly, so the executor's work is the same
    whatever the kind."""
    cell_type = _AGGREGATE_TYPES[pass_index]
    sql, reference = _aggregate(rng, pass_index)
    broken = {
        "keyword_fix": sql.replace(" FROM ", " FORM ", 1),
        "identifier_fix": sql.replace("AVG(area)", "AVG(aera)"),
        "quote_fix": sql.replace(f"'{cell_type}'", f'"{cell_type}"'),
        "clause_drop": sql + " trailing",
    }[kind]
    return QueryItem("aggregate", broken, reference, kind)


def _hostile(rng: random.Random, stage: str, variant: int) -> QueryItem:
    c = _num(rng, 100.0, 500.0)
    texts = {
        "sanitize": (
            f"SELECT * FROM cells WHERE area > {c}; DROP TABLE cells",
            f"DELETE FROM cells WHERE area > {c}",
            f"SELECT * FROM cells WHERE area > {c} -- keep everything",
        ),
        "parse": (f"SELECT area FROM cells WHERE area IN (SELECT area FROM structures WHERE area > {c})",),
        "schema": (f"SELECT AVG(cell_type) AS m FROM cells WHERE area > {c}",),
        "repair_exhausted": (f"SELECT cell_id FROM nuclei_export_{int(c)} WHERE area > {c}",),
    }[stage]
    return QueryItem("hostile", texts[variant % len(texts)], None, reject_stage=stage)


def query_round(rng: random.Random, round_index: int) -> list[QueryItem]:
    """One round: the five shapes in a seeded order, the aggregate one
    defective, then one hostile item. The top-k column and the aggregate cell
    type alternate from round to round; the repair kind and the rejection
    stage rotate."""
    pass_index = round_index % 2
    order = list(SHAPES)
    rng.shuffle(order)
    items = []
    for shape in order:
        if shape == "aggregate":
            items.append(_defective(rng, REPAIR_KINDS[round_index % len(REPAIR_KINDS)], pass_index))
        else:
            items.append(QueryItem(shape, *_BUILDERS[shape](rng, pass_index)))
    stage = REJECT_STAGES[round_index % len(REJECT_STAGES)]
    items.append(_hostile(rng, stage, round_index // len(REJECT_STAGES)))
    return items
