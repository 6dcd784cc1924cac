"""The README's examples run as documented, and no mutation of its JSON
documents reaches an internal error."""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdarwin.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after ``heading`` in the README."""
    start = README.index(f"```{lang}\n", README.index(heading)) + len(lang) + 4
    return README[start:README.index("```", start)]


SPEC = json.loads(readme_block("### Model spec JSON", "json"))
CONFIG = json.loads(readme_block("### Experiment config JSON", "json"))


def run_cli(argv):
    """Exit code and stderr of one ``qdarwin`` command; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def command(kind: str, path: Path) -> list:
    if kind == "spec":
        return ["classify", "--config", str(path)]
    return ["sweep", "--config", str(path), "--out", str(path.with_suffix(".csv"))]


def test_examples_run(tmp_path, capsys):
    for kind, doc in (("spec", SPEC), ("config", CONFIG)):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert run_cli(command(kind, path)) == (0, "")
    exec(readme_block("## Library example", "python"), {})
    assert capsys.readouterr().out.count("\n") >= 3  # its three prints


def slots(doc):
    """(container, key) of every value nested in a JSON document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


MUTATIONS = ("drop", "string", "bool", "nan", "short list", "long list", "object")


@st.composite
def mutated(draw):
    """A README document with one value dropped or replaced by a value of
    the wrong kind or length."""
    kind = draw(st.sampled_from(("spec", "config")))
    doc = copy.deepcopy(SPEC if kind == "spec" else CONFIG)
    container, key = draw(st.sampled_from(list(slots(doc))))
    old = container[key]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "drop":
        del container[key]
    else:
        as_list = old if isinstance(old, list) else [old]
        container[key] = {
            "string": draw(st.sampled_from(("", "z", "zzz", "1", "nan"))),
            "bool": draw(st.booleans()),
            "nan": float("nan"),
            "short list": as_list[:-1],
            "long list": as_list + as_list[-1:] * 2,
            "object": {"type": old},
        }[mutation]
    return kind, doc


def with_axes(axes):
    doc = copy.deepcopy(SPEC)
    doc["sys_env"][0]["axes"] = axes
    return "spec", doc


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=mutated())
@example(case=with_axes("z"))
@example(case=with_axes("zzz"))
def test_malformed_documents_are_usage_errors(tmp_path, case):
    kind, doc = case
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(command(kind, path))
    assert code in (0, 2), err
    assert not err.startswith("internal error"), err
