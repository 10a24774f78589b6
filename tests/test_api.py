"""The top-level package exports the documented pipeline, and the README's
Python quick start runs."""

import inspect
import pathlib
import re

import certbound
from certbound import bnb
from certbound.cli import run

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_section(title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## )", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_all_is_the_documented_api():
    table_rows = re.findall(r"^\| `(\w+)` \|", readme_section("Python API"), re.M)
    assert sorted(certbound.__all__) == sorted(table_rows)
    assert len(set(certbound.__all__)) == len(certbound.__all__)
    assert all(hasattr(certbound, name) for name in certbound.__all__)


def test_readme_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    snippet = re.search(r"```python\n(.*?)```", readme_section("Quick start"), re.S).group(1)
    path = re.search(r'load_model\("([^"]+)"\)', snippet).group(1)
    assert run(["make-model", "traffic", "--sections", "1", "--output", str(tmp_path / path)]) == 0
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    gamma, lower, eps_optimal = capsys.readouterr().out.split()
    assert 0.0 < float(lower) <= float(gamma) and eps_optimal == "True"


def test_optimizer_options_are_the_documented_ones():
    # Every BnBConfig field is a documented option, and the optimizer entry
    # points take exactly (h, hI, domain, cfg).
    row = re.search(r"^\| `BnBConfig` \|(.*)\|$", readme_section("Python API"), re.M).group(1)
    documented = re.findall(r"`(\w+)`", row)
    assert list(inspect.signature(certbound.BnBConfig).parameters) == documented
    for fn in (bnb.maximize, bnb.minimize):
        assert list(inspect.signature(fn).parameters) == ["h", "hI", "domain", "cfg"]
