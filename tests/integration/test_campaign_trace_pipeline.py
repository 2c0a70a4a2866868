"""Digest-compatibility and memory-model gates of the streaming trace pipeline.

The streaming refactor is only allowed to change *how* traces flow, never
*what* the campaign reports: the committed fixture
``tests/data/campaign_default_pr3.jsonl`` is the JSONL of the default
19-spec campaign as written **before** the refactor (PR 3 code, list-based
collector), and the campaign of today must reproduce every deterministic
row — ``trace_digest`` values above all — byte for byte.  The second gate
pins the memory model itself: the paired happy path must never construct a
``ListSink``, i.e. no trace record list may exist anywhere in a campaign.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.campaign import CampaignRunner, default_campaign, merge_jsonl
from repro.campaign.spec import MODE_REFERENCE, MODES

#: ``CampaignResult.fingerprint()`` of the default campaign as recorded by
#: the PR 3 (pre-streaming-refactor) pipeline.
PR3_DEFAULT_CAMPAIGN_FINGERPRINT = (
    "5e1aa1d8cacafd425b1f5f2267e405aec2a0c6afbaf34b811424d7e11373ecdd"
)

#: ``CampaignResult.fingerprint()`` of every default spec run unpaired in
#: both modes (see :func:`_both_mode_specs`).  Unlike the paired pin above,
#: whose rows cover only the Smart runs and the pair verdicts, this one
#: holds every reference-mode row too.
BOTH_MODES_FINGERPRINT = (
    "4ff1d4bcbd518b4b76d7597942695850ba124e4b5dd4ff66ee62f0731bbb4548"
)

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "campaign_default_pr3.jsonl",
)


class TestDigestCompatibility:
    def test_default_campaign_fingerprint_is_byte_stable(self, tmp_path):
        path = tmp_path / "default.jsonl"
        result = CampaignRunner(workers=1).run(
            default_campaign(), jsonl=str(path)
        )
        assert result.all_pairs_equivalent
        assert result.fingerprint() == PR3_DEFAULT_CAMPAIGN_FINGERPRINT
        # Row-level check: every JSONL line (runs, pairs, header) written
        # today equals the committed pre-refactor line byte for byte.
        with open(FIXTURE) as fixture:
            expected = fixture.read()
        assert path.read_text() == expected

    def test_fixture_itself_merges_to_the_pinned_fingerprint(self):
        assert (
            merge_jsonl([FIXTURE]).fingerprint()
            == PR3_DEFAULT_CAMPAIGN_FINGERPRINT
        )

    def test_trace_digests_match_the_fixture_row_by_row(self, tmp_path):
        result = CampaignRunner(workers=1).run(default_campaign())
        digests = {
            (record.name, record.mode): (record.trace_digest, record.trace_lines)
            for record in result.runs
        }
        with open(FIXTURE) as fixture:
            for line in fixture:
                row = json.loads(line)
                if row["type"] != "run":
                    continue
                assert digests[(row["name"], row["mode"])] == (
                    row["trace_digest"],
                    row["trace_lines"],
                ), f"trace digest drifted for {row['name']}[{row['mode']}]"


def _both_mode_specs(burst):
    """Each default spec in reference and in Smart mode, named
    ``name@mode``; reference-mode contention is left out because it has no
    reference twin and raises by design."""
    return [
        replace(spec.with_mode(mode), name=f"{spec.name}@{mode}")
        for spec in default_campaign(burst=burst)
        for mode in MODES
        if not (spec.workload == "contention" and mode == MODE_REFERENCE)
    ]


class TestBothModesPinned:
    @pytest.mark.parametrize("burst", (True, False))
    def test_unpaired_both_mode_campaign_is_pinned(self, burst):
        """Span and word transfers reproduce one pin in both modes: burst
        is a speed knob and never changes a reference or a Smart row."""
        specs = _both_mode_specs(burst)
        assert len(specs) == 36
        result = CampaignRunner(workers=1, paired=False).run(specs)
        assert result.fingerprint() == BOTH_MODES_FINGERPRINT


class TestMemoryModel:
    def test_paired_happy_path_never_constructs_a_list_sink(self, monkeypatch):
        """The acceptance gate: no trace record list exists in a campaign."""
        from repro.kernel import tracing

        constructed = []
        original_init = tracing.ListSink.__init__

        def spying_init(self):
            constructed.append(type(self).__name__)
            original_init(self)

        monkeypatch.setattr(tracing.ListSink, "__init__", spying_init)
        specs = [
            spec for spec in default_campaign()
            if spec.name in ("writer_reader_d4", "streaming_d2", "random_s7_d3")
        ]
        result = CampaignRunner(workers=1).run(specs)
        assert result.all_pairs_equivalent
        assert len(result.pairs) == 3
        assert constructed == []

    def test_explicit_list_sink_override_still_works(self):
        specs = [
            spec for spec in default_campaign()
            if spec.name in ("writer_reader_d4", "streaming_d2")
        ]
        digest_result = CampaignRunner(workers=1).run(specs)
        list_result = CampaignRunner(workers=1, trace_sink="list").run(specs)
        assert list_result.fingerprint() == digest_result.fingerprint()

    def test_null_sink_disables_tracing(self):
        specs = [
            spec for spec in default_campaign()
            if spec.name in ("writer_reader_d4",)
        ]
        result = CampaignRunner(workers=1, trace_sink="null").run(specs)
        (run,) = [r for r in result.runs]
        assert run.trace_lines == 0
        # Digest degenerates to the empty digest on both sides, so the
        # pair trivially "matches" — tracing off means trace validation
        # off (the extras are still compared).
        assert result.all_pairs_equivalent

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_pipeline_fingerprint_is_worker_invariant(self, workers):
        specs = [
            spec for spec in default_campaign()
            if spec.name in ("streaming_d2", "noc_stress_2x2", "packet_stream_p2")
        ]
        result = CampaignRunner(workers=workers).run(specs)
        assert result.all_pairs_equivalent
        assert result.fingerprint() == CampaignRunner(workers=1).run(specs).fingerprint()
