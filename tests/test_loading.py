"""What each tool loads: every run is a fresh interpreter, whose
``sys.modules`` shows which modules it imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfg.cli import fasta2pfg_main

from conftest import RUNNING_SEQUENCES, RUNNING_TRIGGERS

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one tool's main in-process on files, then prints its status and the
# names of the loaded modules as JSON
RUN_TOOL = """
import io, json, sys
from pfg import cli
status = getattr(cli, sys.argv[1] + "_main")(sys.argv[2:], stdout=io.StringIO(), stderr=io.StringIO())
print(json.dumps([status, sorted(sys.modules)]))
"""

BUILDERS_ONLY = {"pfg.fasta", "pfg.partition"}
GFA_READER = {"pfg.document", "pfg.paths", "pfg.records"}
EMISSION = {"pfg.emission"}
ORACLE = {"pfg.oracle"}


def python(code, *args):
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        check=True,
    )
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("loading")
    (folder / "triggers.txt").write_text("".join(f"{word}\n" for word in RUNNING_TRIGGERS))
    (folder / "input.fa").write_text("".join(f">{name}\n{data}\n" for name, data in RUNNING_SEQUENCES))
    with open(folder / "graph.gfa", "w") as gfa:
        assert fasta2pfg_main(["-t", str(folder / "triggers.txt"), str(folder / "input.fa")], stdout=gfa) == 0
    return folder


@pytest.mark.parametrize(
    "tool, args, unused",
    [
        ("fasta2pfg", ["-t", "triggers.txt", "input.fa"], GFA_READER | EMISSION | ORACLE),
        ("gfa2pfg", ["-t", "triggers.txt", "graph.gfa"], {"pfg.fasta"} | EMISSION | ORACLE),
        ("pfg2sa", ["graph.gfa"], BUILDERS_ONLY | ORACLE),
        ("pfg2sa", ["--bwt", "graph.gfa"], BUILDERS_ONLY | ORACLE),
        ("pfg2sa", ["--verify", "graph.gfa"], BUILDERS_ONLY),
    ],
    ids=["fasta2pfg", "gfa2pfg", "pfg2sa", "pfg2sa-bwt", "pfg2sa-verify"],
)
def test_each_tool_loads_only_what_it_runs(inputs, tool, args, unused):
    args = [str(inputs / arg) if arg.endswith((".txt", ".fa", ".gfa")) else arg for arg in args]
    status, modules = python(RUN_TOOL, tool, *args)
    assert status == 0
    assert sorted(unused & set(modules)) == []
    # the package generates no class when it is imported
    assert "dataclasses" not in modules
    if "--verify" in args:
        assert ORACLE <= set(modules)


@pytest.mark.parametrize(
    "before",
    [
        "",
        "import pfg.emission",
        "from pfg.cli import pfg2sa_main\nif pfg2sa_main([sys.argv[1]], stdout=io.StringIO()): sys.exit(1)",
    ],
    ids=["fresh", "module-imported", "after-pfg2sa"],
)
def test_package_stream_is_the_function(inputs, before):
    code = f"import io, json, sys\n{before}\nfrom pfg import stream\nprint(json.dumps(type(stream).__name__))"
    assert python(code, str(inputs / "graph.gfa")) == "function"


def test_package_loads_no_submodule():
    code = "import json, sys, pfg; print(json.dumps(sorted(m for m in sys.modules if m.startswith('pfg'))))"
    assert python(code) == ["pfg"]


def test_every_public_name_resolves():
    code = "import json, pfg; print(json.dumps([hasattr(pfg, name) for name in pfg.__all__]))"
    resolved = python(code)
    assert len(resolved) == 18 and all(resolved)
