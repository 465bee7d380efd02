"""The README stays in step with the package: its example config loads, its
library example runs on one copy of its rows, its summary-CSV table lists
the columns a run writes,
the package attributes it names exist, and the top-level names are exactly
those the demos and that example import, plus the error classes."""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import splitsim
from splitsim import errors
from splitsim.harness import ExperimentConfig, LeakageSpec, run_experiment

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def library_example() -> str:
    section = README.split("## Library use", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


def names_from_splitsim(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "splitsim"
            and node.level == 0 for alias in node.names}


def test_example_config_loads():
    configs = [json.loads(block) for block in fenced("json") if '"protocol"' in block
               and "..." not in block]
    assert len(configs) == 1
    cfg = ExperimentConfig.from_dict(configs[0])
    assert cfg.protocol.kind == "sglr"


def summary_table_columns() -> list[str]:
    section = README.split("The summary CSV holds one row", 1)[1]
    table = re.search(r"^\|.*?(?=^$)", section, re.S | re.M).group(0)
    return re.findall(r"^\| `(\w+)` \|", table, re.M)


def test_summary_table_lists_the_columns_a_run_writes(tmp_path):
    raw = {"protocol": {"kind": "psl", "clients": 2, "epochs": 1, "batch_size": 4},
           "dataset": {"per_class": 20, "per_client": 8, "validation": 8},
           "model": {"hidden": [4]}, "run_id": "doc"}
    result = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    header = (tmp_path / "doc.summary.csv").read_text().splitlines()[0].split(",")
    assert summary_table_columns() == header == [*result.summary_row()]


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(e) for e in range(10)]
    # The trainer keeps the arranged rows: every client is a view of the one
    # array that also holds the validation set.
    trainer, val = namespace["trainer"], namespace["val"]
    for client in trainer.clients:
        assert client.features.base is val.features.base
        assert client.labels.base is val.labels.base


def test_top_level_names_are_what_demos_and_readme_import():
    used = names_from_splitsim(library_example())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= names_from_splitsim(demo.read_text())
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, errors.SplitSimError)}
    assert len(error_classes) == 6
    assert set(splitsim.__all__) == used | error_classes
    assert len(splitsim.__all__) == len(set(splitsim.__all__))


def test_named_package_attributes_exist():
    """Every backticked ``<module>.<attr>[.<attr>...]`` whose module is one of
    the package's resolves; ``leakage.<LeakageSpec field>`` is a config path."""
    modules = [m.name for m in pkgutil.iter_modules(splitsim.__path__)]
    names = set(re.findall(rf"`((?:{'|'.join(modules)})(?:\.[A-Za-z_]\w*)+)", README))
    config_paths = {f"leakage.{f.name}" for f in dataclasses.fields(LeakageSpec)}
    missing = []
    for name in sorted(names - config_paths):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"splitsim.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert len(names) >= 40 and not missing
