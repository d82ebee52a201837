"""The benchmark's tracer (``perfbench/tracer.py``) wraps linhyp's layer
functions and counts two methods of ``LinearHypergraph``, each looked up
by name: a renamed or removed one must fail here, not only in a traced
benchmark run."""
import sys
from pathlib import Path

from linhyp.graphs import LinearHypergraph


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    """Constructing a ``Tracer`` resolves every name it wraps and
    installs no wrapper; the counted methods are plain methods."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracer import COUNTED_METHODS, LAYERS, Tracer

    tracer = Tracer()
    assert len(tracer.names) == sum(map(len, LAYERS.values()))
    for name in ("port_tables", "conn_inv"):
        assert callable(vars(LinearHypergraph)[name])
    for name in COUNTED_METHODS:
        assert not hasattr(vars(LinearHypergraph)[name], "__wrapped__")
