"""The benchmark's tracer still finds every library name it rebinds."""

import os
import sys

from fractaldist import cli, measures, metrics, structure
from fractaldist.harmonic import HarmonicStructure
from fractaldist.structure import VertexRef, generate_spec

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import tracer as tracing  # noqa: E402


def test_tracer_hooks_resolve_and_restore(tmp_path):
    functions = [(structure, "build_level"), (metrics, "build_level"),
                 (measures, "cell_boundary_values"), (measures, "check_domination"),
                 (metrics, "intrinsic_certificate"), (metrics, "_csgraph_dijkstra"),
                 (cli, "main")]
    methods = [(HarmonicStructure, "build"), (metrics.MetricContext, "level"),
               (measures.SlackTable, "to_csv")]
    before = [getattr(owner, name) for owner, name in functions]
    before_methods = [vars(cls)[name] for cls, name in methods]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        ctx = metrics.MetricContext(HarmonicStructure.build(generate_spec("gasket", 2)))
        cert = metrics.intrinsic_certificate(ctx, VertexRef((), 0), VertexRef((), 1), 2)
        assert cert.feasible
        assert cli.main(["--spec", "gasket:2", "--out", str(tmp_path), "certify",
                         "--from=-:0", "--to=-:1", "--level", "2"]) == 0
        # certificates run on the cell tree; the graph export still builds
        # the level's walk graph
        assert cli.main(["--spec", "gasket:2", "--out", str(tmp_path), "graph",
                         "--level", "2"]) == 0
        # a certificate takes its measures from the profile's pass over the
        # level; the depth table still tabulates them on their own
        assert cli.main(["--spec", "gasket:2", "--out", str(tmp_path), "measures",
                         "--depth", "2"]) == 0
    finally:
        tr.restore()
    recorded = {span.name for span in tr.spans}
    assert {"structure.build_level", "measures.cell_boundary_values",
            "measures.tuple_cell_measures", "measures.cell_energies",
            "measures.check_domination", "metrics.weighted_level_graph", "metrics.dijkstra",
            "metrics.geodesic_profile", "metrics.intrinsic_certificate",
            "metrics.MetricContext.level", "harmonic.build", "measures.SlackTable.to_csv",
            "cli.main"} <= recorded
    # each profile measures its level in the one pass of the tuple's measures,
    # called positionally, so that the span knows its level
    profiles = [i for i, span in enumerate(tr.spans) if span.name == "metrics.geodesic_profile"]
    passes = [span for span in tr.spans if span.name == "measures.tuple_cell_measures"
              and span.parent in profiles]
    assert len(profiles) == 2 and sorted(span.parent for span in passes) == profiles
    assert all(span.attrs == {"spec": "gasket:2", "level": 2} for span in passes)
    assert [getattr(owner, name) for owner, name in functions] == before
    assert [vars(cls)[name] for cls, name in methods] == before_methods
