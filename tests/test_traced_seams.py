"""The benchmark harness's tracer wraps package names listed in
``perfbench/tracing.TARGETS``; a refactor that drops or renames one of them
fails here, not only in the harness's own self-test."""

import importlib.util
from pathlib import Path

import qdarwin
import qdarwin.cli  # noqa: F401  (the tracer reaches it as an attribute of the package)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(path):
    """The module or class named by a dotted path from the package root."""
    owner = qdarwin
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves_and_install_restores_it():
    tracing = load_tracing()
    originals = {}
    for owner_path, attr, _, _ in tracing.TARGETS:
        owner = owner_of(owner_path)
        assert attr in vars(owner), f"{owner_path}.{attr} is not defined where the tracer wraps it"
        originals[owner_path, attr] = vars(owner)[attr]
    tracer = tracing.Tracer()
    tracer.install(qdarwin)
    try:
        for (owner_path, attr), original in originals.items():
            assert vars(owner_of(owner_path))[attr] is not original
        instance = qdarwin.sample_instance(qdarwin.build_model("CODI", 3), 0)
        qdarwin.dynamics.DensePropagator(instance)
    finally:
        tracer.uninstall()
    for (owner_path, attr), original in originals.items():
        assert vars(owner_of(owner_path))[attr] is original
    # one build reads H once, through the traced module global
    names = [span[0] for span in tracer.spans]
    assert names.count("dynamics.build") == 1
    assert names.count("model.hamiltonian_matrix") == 1
