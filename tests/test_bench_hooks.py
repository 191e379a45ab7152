"""The benchmark's call-site wrappers (perfbench/spans.py) still find every
name they hook, so renaming one fails here instead of crashing every traced
benchmark session."""

from pathlib import Path

from mzvtools import cli, relations
from mzvtools.linalg import SparseRREF

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = (cli.build_relation_matrix, relations.build_relation_matrix,
                 SparseRREF.insert_all)
    relations._table.cache_clear()  # so the table builds under the tracer
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["dims", "--max", "4"]) == 0
        assert cli.main(["detect", "(1,2)", "(3)", "--digits", "40"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.build_relation_matrix, relations.build_relation_matrix,
            SparseRREF.insert_all) == originals
    names = {s[0] for s in tracer.spans}
    assert {"relations.matrix_rank", "relations.build_relation_matrix",
            "relations.RelationMatrix.rows", "linalg.SparseRREF.insert_all",
            "algebra.shuffle", "algebra.stuffle",
            # detect.lll_s stays 0 if detect stops calling lll_reduce
            # through its module global
            "detect.detect", "detect.lll_reduce"} <= names
    assert set(spans.cache_counts()) == {"shuffle", "stuffle", "polylog_half"}
    # the echelon notes read pivot_rows, so a change of its format shows
    # here and not only in a traced benchmark run
    metrics = spans.layer_metrics(tracer.spans, 1.0, spans.cache_counts())
    tables = [relations.relation_table(w) for w in range(2, 5)]
    assert metrics["linalg.rows_in"] == sum(t.n_rows for t in tables)
    assert metrics["linalg.rank"] == sum(map(relations.matrix_rank, tables))
    assert metrics["linalg.max_entry_bits"] >= 1
