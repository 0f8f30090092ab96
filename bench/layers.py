"""The layer table: what the traced run measures, and what each measure moves.

Every entry names one layer boundary, where the traced run wraps it (module
attribute or table slot, always in the namespace of the calling module, since
the package binds names at import time with ``from .x import y``), how it is
recorded, and which end-to-end metric on which workload a change to that layer
should move.  ``PER_LAYER_METRICS`` is derived from this table and must equal
the ``per_layer`` list of ``BENCHMARK.json``; the self-tests check that.

Kinds:

* ``span``  - every call is kept as a span record; reports ``calls`` and
  ``self_s``.
* ``hot``   - called per column, per tableau or per class weight, so calls are
  folded into the caller's span record instead of being kept one by one;
  reports ``calls`` and ``self_s``.
* ``count`` - an exact count only, with no timing.
"""

from __future__ import annotations

from dataclasses import dataclass

_P = "staircase_tableaux."


@dataclass(frozen=True)
class Layer:
    name: str
    kind: str
    targets: tuple[str, ...]
    moves: tuple[str, ...]
    workloads: tuple[str, ...]
    #: Counter that each call's integer result is added to.
    result_count: str | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("counting.multiplicity", "hot",
          (_P + "sampler:multiplicity", _P + "counting:multiplicity"),
          ("sample_large.draws_per_s", "count_table.p50_s"),
          ("sampling", "exact-laws")),
    Layer("counting.bd_only_multiplicity", "hot",
          (_P + "sampler:bd_only_multiplicity",),
          ("sample_large.draws_per_s", "count_table.p50_s"),
          ("sampling", "exact-laws")),
    Layer("counting.with_ag_multiplicity", "hot",
          (_P + "sampler:with_ag_multiplicity",),
          ("sample_large.draws_per_s", "count_table.p50_s"),
          ("sampling", "exact-laws")),
    Layer("counting.completions", "span",
          (_P + "cli:completions",),
          ("count_table.p50_s",), ("exact-laws",)),
    Layer("enumerator.ColumnFill", "hot",
          (_P + "sampler:ColumnFill",),
          ("sample_small.draws_per_s",), ("sampling",)),
    Layer("sampler.sample_many", "span",
          (_P + "sampler:sample_many",),
          ("sample_large.draws_per_s", "sample_small.draws_per_s"),
          ("sampling",)),
    Layer("sampler.sample_statistics", "span",
          (_P + "sampler:sample_statistics",),
          ("sample_small.draws_per_s",), ("sampling",)),
    Layer("core.statistics", "hot",
          (_P + "core:statistics", _P + "sampler:statistics",
           _P + "cli:tableau_statistics"),
          ("sample_small.draws_per_s", "enum_visit.leaves_per_s"),
          ("sampling", "census")),
    Layer("core.validate.calls", "count",
          (_P + "core:validate",),
          ("enum_visit.leaves_per_s", "asep_verify.p50_s"), ("census",)),
    Layer("core.weight", "hot",
          (_P + "asep:weight",),
          ("asep_verify.p50_s",), ("census",)),
    Layer("core.type_word", "hot",
          (_P + "asep:type_word",),
          ("asep_verify.p50_s",), ("census",)),
    Layer("enumerator.enumerate_all", "span",
          (_P + "enumerator:enumerate_all", _P + "asep:enumerate_all"),
          ("enum_count.leaves_per_s", "enum_visit.leaves_per_s",
           "asep_verify.p50_s"),
          ("census",), result_count="enumerator.leaves"),
    Layer("enumerator.leaves", "count", (),
          ("enum_count.leaves_per_s", "enum_visit.leaves_per_s",
           "asep_verify.p50_s"),
          ("census",)),
    Layer("asep.partition_functions", "span",
          (_P + "asep:partition_functions",),
          ("asep_verify.p50_s",), ("census",)),
    Layer("asep.build_chain", "span",
          (_P + "asep:build_chain",),
          ("asep_verify.p50_s",), ("census",)),
    Layer("asep.stationary", "span",
          (_P + "asep:stationary",),
          ("asep_verify.p50_s",), ("census",)),
    Layer("stats.dist_r", "span",
          (_P + "cli:dist_r", _P + "cli:_DIST_FNS[r]"),
          ("dist_r.p50_s",), ("exact-laws",)),
    Layer("stats.dist_A", "span",
          (_P + "cli:dist_A", _P + "cli:_DIST_FNS[a]"),
          ("dist_a.p50_s",), ("exact-laws",)),
    Layer("stats.ExactPMF", "span",
          (_P + "stats:ExactPMF",),
          ("dist_r.p50_s", "dist_a.p50_s"), ("exact-laws",)),
    Layer("polyengine.v_row", "span",
          (_P + "stats:v_row",),
          ("dist_a.p50_s",), ("exact-laws",)),
    Layer("polyengine.build_c", "span",
          (_P + "cli:build_c",),
          ("triangles.p50_s",), ("exact-laws",)),
    Layer("polyengine.build_V", "span",
          (_P + "cli:build_V", _P + "polyengine:build_V"),
          ("triangles.p50_s", "series.p50_s"), ("exact-laws",)),
    Layer("polyengine.bivariate_series_check", "span",
          (_P + "cli:bivariate_series_check",),
          ("series.p50_s",), ("exact-laws",)),
    Layer("cli.main", "span",
          (_P + "cli:main",),
          ("dist_r.p50_s", "dist_a.p50_s", "triangles.p50_s", "series.p50_s",
           "count_table.p50_s"),
          ("exact-laws",)),
    Layer("cli.output_bytes", "count", (),
          ("dist_r.p50_s", "dist_a.p50_s", "triangles.p50_s", "series.p50_s",
           "count_table.p50_s"),
          ("exact-laws",)),
)

#: Traced wall time of one pass minus the untraced wall time of the same pass.
OVERHEAD_METRIC = "trace.overhead_s"


def _layer_metrics(layer: Layer) -> list[dict[str, str]]:
    if layer.kind == "count":
        unit = "bytes" if layer.name.endswith("_bytes") else "count"
        return [{"name": layer.name, "unit": unit, "better": "lower"}]
    return [
        {"name": f"{layer.name}.calls", "unit": "count", "better": "lower"},
        {"name": f"{layer.name}.self_s", "unit": "s", "better": "lower"},
    ]


PER_LAYER_METRICS: tuple[dict[str, str], ...] = tuple(
    m for layer in LAYERS for m in _layer_metrics(layer)
) + ({"name": OVERHEAD_METRIC, "unit": "s", "better": "lower"},)


@dataclass(frozen=True)
class Prediction:
    """What a planned change should move, and what it should leave alone.

    ``moves`` and ``unchanged`` pair a workload with a report metric; ``*``
    stands for every end-to-end and report metric of that workload.
    """

    item: str
    change: str
    moves: tuple[tuple[str, str], ...]
    unchanged: tuple[tuple[str, str], ...]


#: Predictions for the ROADMAP open items, written before any of them lands.
PREDICTIONS: tuple[Prediction, ...] = (
    Prediction(
        "2", "exact laws on integer numerators",
        (("exact-laws", "dist_r.p50_s"), ("exact-laws", "dist_a.p50_s")),
        (("sampling", "*"), ("census", "*")),
    ),
    Prediction(
        # Holds for exact-laws only while multiplicity itself is unchanged:
        # count_table calls it O(n^3) times outside the sampler, so a change
        # made there for the sampler shows its cost in count_table.p50_s.
        "3", "sampler in expected O(1) big-int work per column",
        (("sampling", "sample_large.draws_per_s"),
         ("sampling", "sample_small.draws_per_s")),
        (("census", "*"), ("exact-laws", "*")),
    ),
    Prediction(
        # The Z dynamic programme bypasses the walk only inside asep_verify.
        "4", "transfer-matrix partition functions",
        (("census", "asep_verify.p50_s"),),
        (("sampling", "*"), ("exact-laws", "*"),
         ("census", "enum_count.leaves_per_s"),
         ("census", "enum_visit.leaves_per_s")),
    ),
    Prediction(
        # The count-only walk never builds a Tableau, so it never validates.
        "5", "no re-validation of package-built tableaux",
        (("census", "enum_visit.leaves_per_s"), ("census", "asep_verify.p50_s"),
         ("sampling", "sample_small.draws_per_s")),
        (("exact-laws", "*"), ("census", "enum_count.leaves_per_s")),
    ),
)
