"""Multi-host campaign transports and the :class:`Orchestrator`.

The orchestrator turns the single-pool campaign engine into a multi-host
one without ever shipping simulation state across the host boundary: every
host independently runs

    python -m repro.analysis.cli campaign --shard-by-cost i/N --jsonl ...

against its own checkout, recomputing the identical deterministic
partition from the identical spec list and ``COSTS.json``, and streaming
deterministic JSONL rows to a local file.  Only three kinds of artifact
ever cross the wire — the launch command, the small ``COSTS.json``
sideband, and the finished shard JSONL — never trace lines, which is what
keeps the transport cheap (the lesson of the co-emulation literature:
channel traffic between simulation hosts is the scaling bottleneck).

``HostTransport`` is the pluggable launch/poll/collect protocol:

* :class:`LocalSubprocessTransport` — each "host" is a subprocess on this
  machine with its own working directory.  Fully tested; what CI, the
  orchestrator smoke gate and the benchmarks use.
* :class:`SshTransport` — the same protocol spoken over ``ssh``/``scp``
  against a remote checkout.  The command construction is unit-tested;
  the network legs are deliberately thin wrappers.

The :class:`Orchestrator` drives N hosts, waits for every shard, collects
the shard JSONLs and merges them (:func:`repro.campaign.merge_jsonl`
enforces completeness), so its result carries the byte-identical
fingerprint an unsharded single-pool campaign would have produced.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...analysis.reporting import dict_rows_table
from ...telemetry import (
    NULL_TELEMETRY,
    ProgressTicker,
    Telemetry,
    merge_telemetry_files,
)
from ..runner import (
    MERGED_TELEMETRY,
    CampaignRunner,
    campaign_header_row,
    merge_jsonl,
    write_jsonl,
)
from ..spec import ScenarioSpec, default_campaign
from .costs import CostModel
from .hosts import KIND_LOCAL, KIND_SSH, HostSpec
from .partition import cost_shards, estimated_makespans, makespan_spread

#: Where a host writes its orchestrator artifacts, relative to its
#: repository root (ssh hosts) or inside its private directory (local).
REMOTE_OUT_DIR = "orchestrate-out"


class OrchestratorError(RuntimeError):
    """A host failed to launch, crashed, or produced an unusable shard."""


def _repo_src_dir() -> str:
    """The ``src`` directory of this checkout (for PYTHONPATH)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
class HostTransport:
    """Launch/poll/collect protocol of one orchestrated host.

    Implementations must provide:

    * :meth:`launch` — start ``python -m repro.analysis.cli <cli_args>``
      on the host, logging to ``log_path``; returns an opaque handle.
    * :meth:`poll` — return the exit code, or ``None`` while running.
    * :meth:`terminate` — best-effort kill of a launched command.
    * :meth:`remote_path` — the path (as seen by the *host*) where an
      output artifact of the given name should be written.
    * :meth:`put_file` / :meth:`fetch_file` — ship a small sideband file
      to the host / retrieve an artifact from it.
    """

    kind: str = ""

    def __init__(self, host: HostSpec):
        host.validate()
        self.host = host

    def launch(self, cli_args: Sequence[str], log_path: str):
        raise NotImplementedError

    def poll(self, handle) -> Optional[int]:
        raise NotImplementedError

    def terminate(self, handle) -> None:
        raise NotImplementedError

    def remote_path(self, name: str) -> str:
        raise NotImplementedError

    def put_file(self, local_path: str, name: str) -> str:
        """Ship ``local_path`` to the host; returns the host-side path."""
        raise NotImplementedError

    def fetch_file(self, name: str, local_path: str) -> None:
        """Retrieve the artifact ``name`` from the host to ``local_path``."""
        raise NotImplementedError


class LocalSubprocessTransport(HostTransport):
    """A "host" that is a subprocess on this machine.

    Each host owns a private directory under ``base_dir`` (named after the
    host), which doubles as the subprocess working directory — so N local
    hosts never trample each other's artifacts.  ``PYTHONPATH`` is pointed
    at this checkout's ``src``; the interpreter defaults to
    ``sys.executable``.
    """

    kind = KIND_LOCAL

    def __init__(self, host: HostSpec, base_dir: str):
        super().__init__(host)
        # Absolute: remote_path() results are handed to a subprocess whose
        # working directory is the host dir, not the orchestrator's.
        self.base_dir = os.path.abspath(base_dir)
        self.host_dir = os.path.join(self.base_dir, host.name)
        os.makedirs(self.host_dir, exist_ok=True)

    @property
    def python(self) -> str:
        return self.host.python or sys.executable

    def command(self, cli_args: Sequence[str]) -> List[str]:
        return [self.python, "-m", "repro.analysis.cli", *cli_args]

    def launch(self, cli_args: Sequence[str], log_path: str):
        env = dict(os.environ)
        env.update(self.host.env)
        # This checkout's src must stay first on PYTHONPATH whatever the
        # host env declares — the shard campaign has to import repro.
        src = _repo_src_dir()
        existing = self.host.env.get(
            "PYTHONPATH", os.environ.get("PYTHONPATH")
        )
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        log = open(log_path, "w")
        try:
            process = subprocess.Popen(
                self.command(cli_args),
                cwd=self.host_dir,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            # Popen duplicated the descriptor (or raised); either way the
            # parent's handle is no longer needed.
            log.close()
        return process

    def poll(self, handle) -> Optional[int]:
        return handle.poll()

    def terminate(self, handle) -> None:
        if handle.poll() is None:
            handle.terminate()
            try:
                handle.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                handle.kill()
                handle.wait()

    def remote_path(self, name: str) -> str:
        return os.path.join(self.host_dir, name)

    def put_file(self, local_path: str, name: str) -> str:
        destination = self.remote_path(name)
        if os.path.abspath(local_path) != os.path.abspath(destination):
            shutil.copyfile(local_path, destination)
        return destination

    def fetch_file(self, name: str, local_path: str) -> None:
        source = self.remote_path(name)
        if not os.path.exists(source):
            raise OrchestratorError(
                f"host {self.host.name!r} did not produce {name!r} "
                f"(expected at {source})"
            )
        if os.path.abspath(source) != os.path.abspath(local_path):
            shutil.copyfile(source, local_path)


class SshTransport(HostTransport):
    """The same launch/poll/collect protocol spoken over ssh/scp.

    The launched command is::

        ssh [-p PORT] [user@]address \\
            'cd WORKDIR && mkdir -p orchestrate-out && \\
             PYTHONPATH=src [ENV...] PYTHON -m repro.analysis.cli ...'

    The local ``ssh`` client process is the job handle: its exit code is
    the remote command's exit code, so poll/terminate work exactly like
    the local transport.  Sideband files travel by ``scp``.  Command
    construction (:meth:`remote_shell_command`, :meth:`ssh_argv`,
    :meth:`scp_put_argv`, :meth:`scp_fetch_argv`) is pure and
    unit-tested; ``popen``/``run`` are injectable for tests.
    """

    kind = KIND_SSH

    #: ssh options applied to every connection: never prompt (an
    #: orchestrated campaign is unattended by definition).
    BATCH_OPTIONS = ("-o", "BatchMode=yes")

    def __init__(
        self,
        host: HostSpec,
        *,
        popen=subprocess.Popen,
        run=subprocess.run,
    ):
        super().__init__(host)
        self._popen = popen
        self._run = run

    @property
    def python(self) -> str:
        return self.host.python or "python3"

    # -- pure command builders (unit-tested) ---------------------------
    def remote_path(self, name: str) -> str:
        return f"{self.host.workdir.rstrip('/')}/{REMOTE_OUT_DIR}/{name}"

    def remote_shell_command(self, cli_args: Sequence[str]) -> str:
        # The checkout's src leads PYTHONPATH; a host-declared PYTHONPATH
        # is appended rather than allowed to clobber it.
        user_pythonpath = self.host.env.get("PYTHONPATH")
        pythonpath = f"src:{user_pythonpath}" if user_pythonpath else "src"
        environment = f"PYTHONPATH={shlex.quote(pythonpath)}"
        for key in sorted(self.host.env):
            if key == "PYTHONPATH":
                continue
            environment += f" {key}={shlex.quote(self.host.env[key])}"
        command = " ".join(shlex.quote(arg) for arg in cli_args)
        return (
            f"cd {shlex.quote(self.host.workdir)} && "
            f"mkdir -p {REMOTE_OUT_DIR} && "
            f"{environment} {shlex.quote(self.python)} "
            f"-m repro.analysis.cli {command}"
        )

    def _port_options(self, flag: str) -> List[str]:
        return [flag, str(self.host.port)] if self.host.port else []

    def ssh_argv(self, remote_command: str) -> List[str]:
        return [
            "ssh", *self.BATCH_OPTIONS, *self._port_options("-p"),
            self.host.destination, remote_command,
        ]

    def scp_put_argv(self, local_path: str, name: str) -> List[str]:
        # The remote path is passed unquoted on purpose: scp's legacy
        # protocol shell-expands it while its SFTP protocol (OpenSSH >= 9
        # default) takes it literally, so quoting is correct on exactly
        # one of them.  HostSpec.validate rejects workdirs that would
        # need quoting, making the plain form right on both.
        return [
            "scp", *self.BATCH_OPTIONS, *self._port_options("-P"),
            local_path, f"{self.host.destination}:{self.remote_path(name)}",
        ]

    def scp_fetch_argv(self, name: str, local_path: str) -> List[str]:
        return [
            "scp", *self.BATCH_OPTIONS, *self._port_options("-P"),
            f"{self.host.destination}:{self.remote_path(name)}", local_path,
        ]

    # -- protocol ------------------------------------------------------
    def launch(self, cli_args: Sequence[str], log_path: str):
        log = open(log_path, "w")
        try:
            process = self._popen(
                self.ssh_argv(self.remote_shell_command(cli_args)),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        return process

    def poll(self, handle) -> Optional[int]:
        return handle.poll()

    def terminate(self, handle) -> None:
        # Kills the local ssh client; sshd delivers the hangup to the
        # remote command (no controlling tty, so a stubborn remote
        # process can linger — acceptable for a best-effort abort).
        if handle.poll() is None:
            handle.terminate()

    def _run_checked(self, argv: List[str], action: str) -> None:
        completed = self._run(argv, capture_output=True)
        if completed.returncode != 0:
            stderr = (completed.stderr or b"").decode(errors="replace").strip()
            raise OrchestratorError(
                f"host {self.host.name!r}: {action} failed "
                f"(exit {completed.returncode}): {stderr}"
            )

    def put_file(self, local_path: str, name: str) -> str:
        self._run_checked(
            self.ssh_argv(
                f"mkdir -p {shlex.quote(self.host.workdir.rstrip('/'))}"
                f"/{REMOTE_OUT_DIR}"
            ),
            "remote mkdir",
        )
        self._run_checked(self.scp_put_argv(local_path, name), f"put {name}")
        return self.remote_path(name)

    def fetch_file(self, name: str, local_path: str) -> None:
        self._run_checked(self.scp_fetch_argv(name, local_path), f"fetch {name}")


def make_transport(host: HostSpec, base_dir: str) -> HostTransport:
    """Build the transport matching ``host.kind``."""
    if host.kind == KIND_LOCAL:
        return LocalSubprocessTransport(host, base_dir)
    if host.kind == KIND_SSH:
        return SshTransport(host)
    raise ValueError(f"unknown host kind {host.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------
@dataclass
class HostRun:
    """Outcome of one host's shard campaign (wall clock is provenance)."""

    host: HostSpec
    shard_index: int
    shard_count: int
    spec_names: List[str]
    jsonl_path: str
    log_path: str
    returncode: int
    wall_seconds: float
    estimated_cost: float


@dataclass
class OrchestratorResult:
    """Merged outcome of an orchestrated campaign."""

    result: object  #: the merged :class:`~repro.campaign.runner.CampaignResult`
    host_runs: List[HostRun]
    shard_by: str  #: ``"cost"`` or ``"index"``
    merged_jsonl: Optional[str] = None

    def fingerprint(self) -> str:
        return self.result.fingerprint()

    def makespans(self) -> List[float]:
        """Measured wall seconds per host (launch to observed exit)."""
        return [run.wall_seconds for run in self.host_runs]

    def makespan_spread(self) -> float:
        """max/min over the measured per-host wall times."""
        return makespan_spread(self.makespans())

    def host_rows(self) -> List[Dict[str, object]]:
        rows = []
        for run in self.host_runs:
            rows.append(
                {
                    "host": run.host.name,
                    "kind": run.host.kind,
                    "shard": f"{run.shard_index}/{run.shard_count}",
                    "specs": len(run.spec_names),
                    "est_cost": round(run.estimated_cost, 4),
                    "wall_s": round(run.wall_seconds, 4),
                    "exit": run.returncode,
                }
            )
        return rows

    def hosts_table(self) -> str:
        return dict_rows_table(
            self.host_rows(),
            ["host", "kind", "shard", "specs", "est_cost", "wall_s", "exit"],
            title="Orchestrated shard campaigns",
        )

    def summary(self) -> str:
        lines = [
            f"{len(self.host_runs)} hosts, shard_by={self.shard_by}, "
            f"makespan spread (max/min wall): {self.makespan_spread():.2f}",
        ]
        if self.merged_jsonl:
            lines.append(f"merged JSONL: {self.merged_jsonl}")
        lines.append(self.result.summary())
        return "\n".join(lines)


class Orchestrator:
    """Drive N hosts through one cost-sharded campaign and merge the shards.

    Parameters
    ----------
    hosts:
        The machines (``HostSpec``; see :func:`~repro.campaign
        .orchestrator.hosts.local_hosts` and ``parse_hosts_file``).
    out_dir:
        Local directory receiving per-host working dirs, logs, collected
        shard JSONLs and the optional merged JSONL.
    workers_per_host:
        ``--workers`` value each shard campaign runs with.
    paired:
        Forwarded to every shard (``--no-paired`` when False).
    shard_by_cost:
        Partition by recorded/estimated cost (the default) or fall back
        to the historical round-robin ``--shard`` (for comparison runs).
    costs_path:
        Local ``COSTS.json`` shipped to every host so they all compute
        the identical partition.  ``None`` = cold-start heuristic (still
        identical everywhere: the heuristic is pure code).
    spec_timeout_s / campaign_budget_s:
        Forwarded to every shard as ``--spec-timeout`` /
        ``--campaign-budget`` (see :class:`~repro.campaign.orchestrator
        .budget.RunBudget`).
    record_costs_path:
        When set, every host records its shard's wall times
        (``--record-costs``); the per-host cost files are collected and
        merged into this local path after the run.  Each host's observed
        throughput (shard specs over makespan) is folded into the file's
        advisory ``hosts`` key — telemetry for operators, never a
        partitioning input.
    telemetry_dir:
        Optional local directory receiving the :mod:`repro.telemetry`
        sideband of the whole orchestrated run: the orchestrator's own
        per-host launch/poll/collect spans and shard makespans
        (``orchestrator.jsonl``), each host's campaign telemetry fetched
        back as ``host-<name>.jsonl`` (their shards run with
        ``--telemetry``), all merged into ``telemetry.jsonl`` at the end.
        Wall-clock sideband only; the merged fingerprint is identical
        with it on or off.
    progress:
        When True, render a live stderr ticker: specs done / total
        (counted from the local shards' growing JSONL files), a per-host
        state tail and an ETA.  Display only, stderr only.
    """

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        out_dir: str,
        *,
        workers_per_host: int = 1,
        paired: bool = True,
        shard_by_cost: bool = True,
        costs_path: Optional[str] = None,
        spec_timeout_s: Optional[float] = None,
        campaign_budget_s: Optional[float] = None,
        record_costs_path: Optional[str] = None,
        poll_interval: float = 0.1,
        telemetry_dir: Optional[str] = None,
        progress: bool = False,
    ):
        if not hosts:
            raise ValueError("orchestrator needs at least one host")
        names = [host.name for host in hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host names: {sorted(names)}")
        for host in hosts:
            host.validate()
        if workers_per_host < 1:
            raise ValueError(
                f"workers_per_host must be >= 1, got {workers_per_host}"
            )
        self.hosts = list(hosts)
        self.out_dir = out_dir
        self.workers_per_host = workers_per_host
        self.paired = paired
        self.shard_by_cost = shard_by_cost
        self.costs_path = costs_path
        self.spec_timeout_s = spec_timeout_s
        self.campaign_budget_s = campaign_budget_s
        self.record_costs_path = record_costs_path
        self.poll_interval = poll_interval
        self.telemetry_dir = telemetry_dir
        self.progress = progress

    # ------------------------------------------------------------------
    def _resolve_specs(
        self, spec_names: Optional[Sequence[str]]
    ) -> List[ScenarioSpec]:
        """Orchestrated specs must come from the registry's default
        campaign: the launch command reconstructs them *by name* on the
        remote side, so an ad-hoc spec object would silently run as
        something else there."""
        specs = default_campaign()
        if spec_names is None:
            return specs
        by_name = {spec.name: spec for spec in specs}
        unknown = [name for name in spec_names if name not in by_name]
        if unknown:
            raise OrchestratorError(
                f"unknown spec name(s): {', '.join(unknown)}; the "
                f"orchestrator can only ship default-campaign specs "
                f"(hosts rebuild them by name)"
            )
        if len(set(spec_names)) != len(spec_names):
            # The same check every host's CampaignRunner would make —
            # fail here, before N hosts fan out and crash on it.
            duplicates = sorted(
                {name for name in spec_names if spec_names.count(name) > 1}
            )
            raise OrchestratorError(
                f"duplicate spec name(s): {', '.join(duplicates)}"
            )
        return [by_name[name] for name in spec_names]

    def _shard_cli_args(
        self, index: int, count: int, remote_costs: Optional[str]
    ) -> List[str]:
        if self.shard_by_cost:
            args = ["--shard-by-cost", f"{index}/{count}"]
            if remote_costs:
                args += ["--costs", remote_costs]
            return args
        return ["--shard", f"{index}/{count}"]

    def _log_tail(self, path: str, limit: int = 2000) -> str:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            return "(no log)"
        return text[-limit:]

    @staticmethod
    def _count_done_rows(path: str) -> int:
        """Completed-spec rows (run + timeout) in a growing shard JSONL.

        A cheap substring scan over the compact row encoding, used only
        by the ``--progress`` ticker against *local* shards (a remote
        shard's file is not visible until collected)."""
        try:
            with open(path) as handle:
                return sum(
                    1
                    for line in handle
                    if '"type":"run"' in line or '"type":"timeout"' in line
                )
        except OSError:
            return 0

    def _tick_progress(self, ticker, launched) -> None:
        """Advance the stderr ticker from whatever is observable now.

        Local shards are counted row-by-row as their files grow; a
        remote shard only contributes once its host has exited (its
        rows are not visible until collected)."""
        total_done = 0
        states = []
        for transport, _, run in launched:
            exited = run.returncode != -1
            if isinstance(transport, LocalSubprocessTransport):
                total_done += self._count_done_rows(
                    transport.remote_path(f"shard{run.shard_index}.jsonl")
                )
            elif exited:
                total_done += len(run.spec_names)
            states.append(
                f"{run.host.name}:" + ("done" if exited else "running")
            )
        while ticker.done < total_done:
            ticker.item_done()
        ticker.tick(detail=" ".join(states))

    # ------------------------------------------------------------------
    def run(
        self,
        spec_names: Optional[Sequence[str]] = None,
        merged_jsonl: Optional[str] = None,
    ) -> OrchestratorResult:
        """Launch every shard, wait, collect, merge; see the class doc.

        ``merged_jsonl`` additionally writes the merged rows as one
        unsharded campaign JSONL file (itself re-mergeable), which is
        what CI uploads as the orchestrate-smoke artifact.
        """
        specs = self._resolve_specs(spec_names)
        names = [spec.name for spec in specs]
        count = len(self.hosts)
        os.makedirs(self.out_dir, exist_ok=True)
        model = CostModel.load(self.costs_path)
        if self.shard_by_cost:
            shards = cost_shards(specs, count, model, self.paired)
        else:
            # The canonical round-robin partitioner: must stay the exact
            # slicing the hosts apply through ``--shard i/N``.
            shards = [
                CampaignRunner.shard_specs(specs, index, count)
                for index in range(count)
            ]
        estimates = estimated_makespans(shards, model, self.paired)

        telemetry = NULL_TELEMETRY
        if self.telemetry_dir is not None:
            os.makedirs(self.telemetry_dir, exist_ok=True)
            telemetry = Telemetry(
                "orchestrate",
                path=os.path.join(self.telemetry_dir, "orchestrator.jsonl"),
            )
        ticker = (
            ProgressTicker(len(specs), label="orchestrate")
            if self.progress
            else None
        )

        launched: List[Tuple[HostTransport, object, HostRun]] = []
        #: Per-host launch timestamp: host launches are sequential (an
        #: ssh put_file can take seconds), so measuring every wall from
        #: one shared start would under-count the earlier hosts and make
        #: the makespan spread look better than it is.
        launch_times: Dict[str, float] = {}
        try:
            for index, (host, shard) in enumerate(zip(self.hosts, shards)):
                with telemetry.span(
                    "orchestrate.launch",
                    host=host.name,
                    shard=f"{index}/{count}",
                ):
                    transport = make_transport(host, self.out_dir)
                    remote_costs = None
                    if (
                        self.shard_by_cost
                        and self.costs_path
                        and os.path.exists(self.costs_path)
                    ):
                        remote_costs = transport.put_file(
                            self.costs_path, "COSTS.json"
                        )
                    jsonl_name = f"shard{index}.jsonl"
                    cli_args = [
                        "campaign",
                        "--specs", ",".join(names),
                        "--workers", str(self.workers_per_host),
                        "--jsonl", transport.remote_path(jsonl_name),
                    ]
                    cli_args += self._shard_cli_args(
                        index, count, remote_costs
                    )
                    if not self.paired:
                        cli_args.append("--no-paired")
                    if self.spec_timeout_s is not None:
                        cli_args += [
                            "--spec-timeout", str(self.spec_timeout_s)
                        ]
                    if self.campaign_budget_s is not None:
                        cli_args += [
                            "--campaign-budget", str(self.campaign_budget_s)
                        ]
                    if self.record_costs_path:
                        cli_args += [
                            "--record-costs",
                            transport.remote_path(f"costs_{host.name}.json"),
                        ]
                    if self.telemetry_dir is not None:
                        # Each host writes its own merged sideband under
                        # its working dir; collected after the campaign.
                        cli_args += [
                            "--telemetry",
                            transport.remote_path("telemetry"),
                        ]
                    log_path = os.path.join(self.out_dir, f"{host.name}.log")
                    handle = transport.launch(cli_args, log_path)
                    launch_times[host.name] = time.monotonic()
                run = HostRun(
                    host=host,
                    shard_index=index,
                    shard_count=count,
                    spec_names=[spec.name for spec in shard],
                    jsonl_path=os.path.join(self.out_dir, jsonl_name),
                    log_path=log_path,
                    returncode=-1,
                    wall_seconds=0.0,
                    estimated_cost=estimates[index],
                )
                launched.append((transport, handle, run))

            pending = list(launched)
            while pending:
                time.sleep(self.poll_interval)
                still = []
                for transport, handle, run in pending:
                    poll_t0 = (
                        time.monotonic() if telemetry.enabled else 0.0
                    )
                    code = transport.poll(handle)
                    if telemetry.enabled:
                        telemetry.span_at(
                            "orchestrate.poll",
                            poll_t0,
                            time.monotonic() - poll_t0,
                            host=run.host.name,
                        )
                    if code is None:
                        still.append((transport, handle, run))
                        continue
                    run.returncode = code
                    run.wall_seconds = (
                        time.monotonic() - launch_times[run.host.name]
                    )
                    if telemetry.enabled:
                        telemetry.span_at(
                            "orchestrate.host",
                            launch_times[run.host.name],
                            run.wall_seconds,
                            host=run.host.name,
                            shard=f"{run.shard_index}/{run.shard_count}",
                            specs=len(run.spec_names),
                        )
                        if run.wall_seconds > 0 and run.spec_names:
                            telemetry.gauge(
                                f"orchestrate.specs_per_s.{run.host.name}",
                                len(run.spec_names) / run.wall_seconds,
                            )
                pending = still
                if ticker is not None:
                    self._tick_progress(ticker, launched)
        except BaseException:
            for transport, handle, _ in launched:
                transport.terminate(handle)
            if ticker is not None:
                ticker.finish()
            raise

        failures = []
        for transport, _, run in launched:
            # Exit code 1 is normally a *completed* campaign reporting a
            # non-equivalent pair or a timeout row — its shard file is
            # valid and must be merged.  But an uncaught exception in the
            # host's python also exits 1, so a crash can only be told
            # apart by its artifacts: a missing or unmergeable shard file
            # below is reported *with* the log tails of every non-zero
            # host, where the traceback lives.
            if run.returncode not in (0, 1):
                failures.append(
                    f"host {run.host.name!r} (shard "
                    f"{run.shard_index}/{run.shard_count}) exited with "
                    f"{run.returncode}; log tail:\n"
                    f"{self._log_tail(run.log_path)}"
                )
        if failures:
            raise OrchestratorError(
                "orchestrated campaign failed:\n" + "\n".join(failures)
            )

        def suspect_log_tails() -> str:
            tails = [
                f"host {run.host.name!r} exited with {run.returncode}; "
                f"log tail:\n{self._log_tail(run.log_path)}"
                for _, _, run in launched
                if run.returncode != 0
            ]
            return ("\n" + "\n".join(tails)) if tails else ""

        for transport, _, run in launched:
            try:
                with telemetry.span(
                    "orchestrate.collect", host=run.host.name
                ):
                    transport.fetch_file(
                        f"shard{run.shard_index}.jsonl", run.jsonl_path
                    )
            except OrchestratorError as exc:
                if telemetry.enabled:
                    telemetry.close()
                if ticker is not None:
                    ticker.finish()
                raise OrchestratorError(
                    f"{exc}{suspect_log_tails()}"
                ) from None

        try:
            merged = merge_jsonl([run.jsonl_path for _, _, run in launched])
        except ValueError as exc:
            raise OrchestratorError(
                f"collected shard files do not merge: {exc}"
                f"{suspect_log_tails()}"
            ) from None

        if self.record_costs_path:
            collected = CostModel.load(self.record_costs_path)
            for transport, _, run in launched:
                name = f"costs_{run.host.name}.json"
                local = os.path.join(self.out_dir, name)
                transport.fetch_file(name, local)
                collected.merge(CostModel.load(local))
                if run.wall_seconds > 0 and run.spec_names:
                    # Advisory throughput observation; the LPT
                    # partitioner never reads it (see costs.py).
                    collected.observe_host(
                        run.host.name,
                        len(run.spec_names) / run.wall_seconds,
                    )
            collected.save(self.record_costs_path)

        if self.telemetry_dir is not None:
            host_files = []
            for transport, _, run in launched:
                local = os.path.join(
                    self.telemetry_dir, f"host-{run.host.name}.jsonl"
                )
                try:
                    with telemetry.span(
                        "orchestrate.collect_telemetry", host=run.host.name
                    ):
                        transport.fetch_file(
                            "telemetry/telemetry.jsonl", local
                        )
                    host_files.append(local)
                except OrchestratorError:
                    # A host that ran zero jobs (empty shard) writes no
                    # sideband; the orchestrated rows are unaffected.
                    telemetry.counter("orchestrate.telemetry_missing")
            telemetry.close()
            merge_telemetry_files(
                [os.path.join(self.telemetry_dir, "orchestrator.jsonl")]
                + host_files,
                os.path.join(self.telemetry_dir, MERGED_TELEMETRY),
                remove_sources=True,
            )
        if ticker is not None:
            ticker.finish()

        if merged_jsonl:
            write_jsonl(
                merged_jsonl,
                campaign_header_row(specs, self.workers_per_host, self.paired),
                merged.runs, merged.pairs, merged.timeouts,
            )

        return OrchestratorResult(
            result=merged,
            host_runs=[run for _, _, run in launched],
            shard_by="cost" if self.shard_by_cost else "index",
            merged_jsonl=merged_jsonl,
        )
