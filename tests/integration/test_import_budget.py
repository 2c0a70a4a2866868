"""Each CLI command imports only the code it runs.

Every check here runs in a fresh interpreter, because the test process has
long since imported the whole package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from typing import List, Set

import pytest

import repro
from repro.campaign import CampaignRunner, ScenarioSpec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules that neither ``campaign --list`` nor ``campaign --merge-jsonl``
#: may load: neither simulates, replays, orchestrates or reports telemetry.
NOT_FOR_LIST_OR_MERGE = (
    "repro.kernel.scheduler",
    "repro.fifo.smart_fifo",
    "repro.replay.engine",
    "repro.campaign.orchestrator.transport",
    "repro.telemetry.report",
    "repro.analysis.experiments",
)
#: Packages none of whose modules ``--list`` or ``--merge-jsonl`` may load.
NOT_FOR_LIST_OR_MERGE_PACKAGES = ("repro.workloads", "repro.soc")


def _python(args: List[str], cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, env=env, capture_output=True,
        text=True, check=True,
    )


def _imports_of(cli_args: List[str], cwd) -> Set[str]:
    """Every module a ``repro.analysis.cli`` invocation imports."""
    done = _python(["-X", "importtime", "-m", "repro.analysis.cli"] + cli_args, cwd)
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _forbidden(modules: Set[str], names, packages=()) -> List[str]:
    return sorted(
        module for module in modules
        if module in names
        or any(module == p or module.startswith(p + ".") for p in packages)
    )


@pytest.fixture(scope="module")
def shard_files(tmp_path_factory):
    """Two small shard files of one campaign, for the merge command."""
    directory = tmp_path_factory.mktemp("shards")
    specs = [
        ScenarioSpec("wr_d1", "writer_reader", depth=1),
        ScenarioSpec("wr_d2", "writer_reader", depth=2),
    ]
    paths = []
    for index in range(2):
        path = str(directory / f"shard{index}.jsonl")
        CampaignRunner(shard=(index, 2)).run(specs, jsonl=path)
        paths.append(path)
    return paths


class TestImportBudget:
    def test_list_loads_no_simulation_code(self, tmp_path):
        modules = _imports_of(["campaign", "--list"], tmp_path)
        assert "repro.campaign.spec" in modules
        assert _forbidden(
            modules, NOT_FOR_LIST_OR_MERGE, NOT_FOR_LIST_OR_MERGE_PACKAGES
        ) == []

    def test_merge_loads_no_simulation_code(self, tmp_path, shard_files):
        modules = _imports_of(
            ["campaign", "--merge-jsonl", ",".join(shard_files)], tmp_path
        )
        assert "repro.campaign.runner" in modules
        assert _forbidden(
            modules, NOT_FOR_LIST_OR_MERGE, NOT_FOR_LIST_OR_MERGE_PACKAGES
        ) == []

    def test_plain_campaign_loads_no_replay_or_report_code(self, tmp_path):
        modules = _imports_of(
            ["campaign", "--specs", "writer_reader_d1,streaming_d2",
             "--workers", "2"],
            tmp_path,
        )
        assert "repro.kernel.scheduler" in modules
        assert _forbidden(
            modules,
            ("repro.replay.engine", "repro.analysis.experiments",
             "repro.telemetry.report"),
        ) == []


class TestForkInheritance:
    def test_pool_forks_after_the_builders_are_imported(self, tmp_path):
        """The parent imports the workload modules before the pool starts,
        so every forked worker inherits them instead of compiling its own."""
        code = textwrap.dedent(
            """
            import sys

            import repro.campaign.runner as runner
            from repro.campaign import CampaignRunner, ScenarioSpec

            assert "repro.soc.platform" not in sys.modules
            real_run_in_pool = runner.run_in_pool
            seen = []

            def spy(*args, **kwargs):
                seen.append("repro.soc.platform" in sys.modules)
                return real_run_in_pool(*args, **kwargs)

            runner.run_in_pool = spy
            result = CampaignRunner(workers=2).run(
                [ScenarioSpec("soc", "soc", depth=8)]
            )
            assert [run.name for run in result.runs] == ["soc"]
            print(seen)
            """
        )
        done = _python(["-c", code], tmp_path)
        assert done.stdout.strip() == "[True]"


class TestStaticRegistry:
    def test_validation_needs_no_builder_import(self, tmp_path):
        """Regression: the registry used to fill only as a side effect of
        importing the builders, so a fresh interpreter that imported just
        the spec module rejected every workload."""
        code = textwrap.dedent(
            """
            import sys

            from repro.campaign.spec import (
                ScenarioSpec, default_campaign, describe_specs,
                spec_is_pairable,
            )

            ScenarioSpec("a", "streaming").validate()
            assert spec_is_pairable(ScenarioSpec("b", "streaming"))
            assert not spec_is_pairable(ScenarioSpec("c", "soc"))
            rows = describe_specs(default_campaign())
            assert len(rows) == len(default_campaign())
            assert "repro.campaign.scenarios" not in sys.modules
            print("ok")
            """
        )
        assert _python(["-c", code], tmp_path).stdout.strip() == "ok"
