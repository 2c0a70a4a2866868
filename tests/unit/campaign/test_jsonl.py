"""Campaign JSONL: one reader for merge and resume, one writer for every row."""

import hashlib
import json

import pytest

from repro.campaign import (
    CampaignResumeError,
    CampaignRunner,
    RunBudget,
    ScenarioSpec,
    TimeoutRecord,
    default_campaign,
    merge_jsonl,
)
from repro.campaign.runner import MERGED_TELEMETRY
from repro.telemetry import load_events

CAMPAIGN = [
    ScenarioSpec("writer_reader_d2", "writer_reader", depth=2),
    ScenarioSpec("bursty_s3", "bursty", depth=3, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("contention_small", "contention", depth=4, seed=2,
                 params={"items_per_writer": 8}),
]

#: SHA-256 of the bytes of the ``workers=1`` default-campaign JSONL: any
#: change in key order, separators, row order or header breaks it.
DEFAULT_CAMPAIGN_JSONL_SHA256 = (
    "dab92fbbf3c74ff02b1e68199326bc5064f3a95bdfdd24913fa139ae6f3313e6"
)


@pytest.fixture(scope="module")
def full_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "full.jsonl"
    CampaignRunner(workers=1).run(CAMPAIGN, jsonl=str(path))
    return path.read_text().splitlines()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def timeout_line(spec, mode):
    row = TimeoutRecord.for_spec(spec, mode, "spec", 1.0).deterministic_row()
    return json.dumps({"type": "timeout", **row})


def without_field(line, key):
    row = json.loads(line)
    del row[key]
    return json.dumps(row)


MALFORMATIONS = {
    "bad_json_mid_file": (
        lambda lines: lines[:2] + ['{"type":"run","broken":tru'] + lines[3:],
        "not valid JSON",
    ),
    "unknown_type": (
        lambda lines: lines[:2] + ['{"type": "mystery"}'] + lines[2:],
        "unknown type",
    ),
    "missing_field": (
        lambda lines: [lines[0], without_field(lines[1], "trace_digest")]
        + lines[2:],
        "missing field",
    ),
    "second_header": (
        lambda lines: lines[:2] + [lines[0]] + lines[2:],
        "second campaign header",
    ),
    "headerless": (lambda lines: lines[1:], "campaign header"),
    "empty": (lambda lines: [], "no campaign rows"),
    "schema_99": (
        lambda lines: [json.dumps(dict(json.loads(lines[0]), schema=99))]
        + lines[1:],
        "schema 99",
    ),
}


@pytest.mark.parametrize("malformation", sorted(MALFORMATIONS))
def test_merge_and_resume_name_the_same_cause(tmp_path, full_lines, malformation):
    mangle, cause = MALFORMATIONS[malformation]
    path = write_lines(tmp_path / "bad.jsonl", mangle(list(full_lines)))
    with pytest.raises(ValueError, match=cause) as merged:
        merge_jsonl([path])
    with pytest.raises(CampaignResumeError, match=cause) as resumed:
        CampaignRunner(workers=1).run(CAMPAIGN, jsonl=path, resume=True)
    assert str(merged.value) in str(resumed.value)


def test_torn_final_line_is_dropped_by_resume_and_rejected_by_merge(
    tmp_path, full_lines
):
    torn = full_lines[:3] + [full_lines[3][:25]]
    path = write_lines(tmp_path / "torn.jsonl", torn)
    with pytest.raises(ValueError, match="not valid JSON"):
        merge_jsonl([path])
    full = CampaignRunner(workers=1).run(CAMPAIGN)
    resumed = CampaignRunner(workers=1).run(CAMPAIGN, jsonl=path, resume=True)
    assert resumed.fingerprint() == full.fingerprint()
    assert merge_jsonl([path]).fingerprint() == full.fingerprint()


def test_resume_rejects_a_run_row_beside_a_timeout_row_of_the_same_job(
    tmp_path, full_lines
):
    run = json.loads(full_lines[1])
    assert run["type"] == "run"
    spec = next(spec for spec in CAMPAIGN if spec.name == run["name"])
    lines = full_lines[:2] + [timeout_line(spec, run["mode"])] + full_lines[2:]
    path = write_lines(tmp_path / "contradictory.jsonl", lines)
    with pytest.raises(CampaignResumeError, match="contradictory"):
        CampaignRunner(workers=1).run(CAMPAIGN, jsonl=path, resume=True)


def test_resume_rejects_a_duplicate_timeout_row(tmp_path, full_lines):
    spec = CAMPAIGN[2]
    assert not any(spec.name in line for line in full_lines[1:3])
    twice = timeout_line(spec, spec.mode)
    path = write_lines(tmp_path / "dup.jsonl", full_lines[:3] + [twice, twice])
    with pytest.raises(CampaignResumeError, match="duplicate timeout row"):
        CampaignRunner(workers=1).run(CAMPAIGN, jsonl=path, resume=True)


def test_resume_does_not_repeat_a_recorded_pair(tmp_path, full_lines):
    # A pair row whose run row is gone: the spec re-runs for its run row,
    # and the recorded pair row must not be written a second time.
    pair = next(line for line in full_lines if '"type":"pair"' in line)
    name = json.loads(pair)["name"]
    lines = [full_lines[0], pair]
    path = write_lines(tmp_path / "pair_only.jsonl", lines)
    CampaignRunner(workers=1).run(CAMPAIGN, jsonl=path, resume=True)
    healed = (tmp_path / "pair_only.jsonl").read_text().splitlines()
    assert healed.count(pair) == 1
    assert sum(name in line for line in healed if '"type":"pair"' in line) == 1
    merge_jsonl([path])


def sink_writes(telemetry_dir):
    events = load_events(str(telemetry_dir / MERGED_TELEMETRY))
    return sum(
        event["value"] for event in events
        if event.get("kind") == "counter"
        and event.get("name") == "campaign.sink_writes"
    )


def test_sink_writes_count_only_the_rows_an_invocation_appends(tmp_path):
    path = tmp_path / "rows.jsonl"
    CampaignRunner(workers=1, telemetry_dir=str(tmp_path / "fresh")).run(
        CAMPAIGN, jsonl=str(path)
    )
    lines = path.read_text().splitlines()
    assert sink_writes(tmp_path / "fresh") == len(lines) - 1  # not the header
    kept = 3
    write_lines(path, lines[:kept])
    CampaignRunner(workers=1, telemetry_dir=str(tmp_path / "resumed")).run(
        CAMPAIGN, jsonl=str(path), resume=True
    )
    healed = path.read_text().splitlines()
    assert sorted(healed) == sorted(lines)
    # Neither the header nor the recovered prefix counts as a write.
    assert sink_writes(tmp_path / "resumed") == len(healed) - kept


def test_a_recorded_half_stands_in_for_its_killed_re_run(tmp_path):
    # The bursty spin burns wall clock only, so both twins write the same
    # rows; the resume re-runs the pair of "slow", whose recorded smart
    # half must not gain a contradictory timeout row when the budget
    # kills its re-run.
    params = {"n_bursts": 2, "max_burst": 3}
    fast = [ScenarioSpec("slow", "bursty", depth=4, seed=3, params=params)]
    slow = [ScenarioSpec("slow", "bursty", depth=4, seed=3,
                         params=dict(params, slow_spin_ms=300))]
    path = tmp_path / "slow.jsonl"
    full = CampaignRunner(workers=1).run(fast, jsonl=str(path))
    header, run = path.read_text().splitlines()[:2]
    assert json.loads(run)["mode"] == fast[0].mode
    write_lines(path, [header, run])
    budgeted = CampaignRunner(
        workers=1, budget=RunBudget(spec_timeout_s=0.1)
    ).run(slow, jsonl=str(path), resume=True)
    assert [(t.name, t.mode) for t in budgeted.timeouts] == [
        ("slow", "reference")
    ]
    merge_jsonl([str(path)])  # complete as a timeout, no contradiction
    healed = CampaignRunner(workers=1).run(fast, jsonl=str(path), resume=True)
    assert healed.fingerprint() == full.fingerprint()


def test_default_campaign_jsonl_bytes_are_pinned(tmp_path):
    path = tmp_path / "default.jsonl"
    CampaignRunner(workers=1).run(default_campaign(), jsonl=str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DEFAULT_CAMPAIGN_JSONL_SHA256
