"""Golden Table-1 results: quality columns and BLIF digests per spec.

Each of the 23 specifications is synthesised with the default modular
method under ``SynthesisOptions(verify_level="hazards")``.  The pinned
values are ``(final_states, final_signals, state_signals, literals)``
and the SHA-256 of the circuit's BLIF text; they are the same under any
``PYTHONHASHSEED``.  A speed-up of a synthesis layer must leave every
one of them unchanged.
"""

import hashlib

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.logic.blif import write_synthesis_blif
from repro.runtime.options import SynthesisOptions
from repro.runtime.run import run_synthesis

#: name -> (final states, final signals, state signals, literals, BLIF
#: SHA-256).
GOLDEN = {
    "mr0": (303, 14, 3, 47,
               "39807bf970b584cc206bde07e179d4eeb44bd204bc12c514c26bb0cdccb6d9e2"),
    "mr1": (216, 11, 3, 43,
               "7ede1b04b0745ba1aee714fa9028ba547ba6ac0a2aba9c9dfea93c6f1574307e"),
    "mmu0": (470, 12, 4, 53,
               "369f88ed1c5b64d6da6cdef78024756c2d5b9c90b8c14969b175863d96f498dc"),
    "mmu1": (68, 10, 2, 31,
               "d804ceea1f4ceeeb9e31ef4171d61ef3f58481ed3c735599e0c4fe38813474a5"),
    "sbuf-ram-write": (66, 12, 2, 24,
               "db2714aea661d9720d40a5e9e47658c6a48262c01a1d674549dff0bb85784b1a"),
    "vbe4a": (118, 11, 5, 67,
               "8594e63f126dda69638e658850c96dc2f3fd30c0196c55af8e879778f0802c6d"),
    "nak-pa": (60, 10, 1, 16,
               "9ebaeba668d568375b47484c41fca4affb1e1343d45d1388f1cd3f6edf137550"),
    "pe-rcv-ifc-fc": (33, 10, 2, 24,
               "a2ddb9508992145897263b741f126f3a773b65026d0ff47c9515cbf7214108ed"),
    "ram-read-sbuf": (75, 13, 3, 31,
               "7ac240499ec47e381c811bf4566698aa06d43ada4e0deccfc786eec5cf102a42"),
    "alex-nonfc": (24, 8, 2, 22,
               "6451080f0ff4174dc89eb6598cd531316ec025d674261b27453d3c5419f71bd6"),
    "sbuf-send-pkt2": (18, 7, 1, 13,
               "27370b6d5dafc3c6b7bec091c6191cec5e54cedbefce4c72c2ffb1c6290ed03a"),
    "sbuf-send-ctl": (24, 8, 2, 20,
               "94d0ea1dba9f443580ebf2026daa49eb7ab70cf4f467d1a0bf073d4f27ea2b26"),
    "atod": (23, 8, 2, 20,
               "a8a0d223c41166639d996335e54e2a3c18ae5809c47c9e97ea4127cc329a4bba"),
    "pa": (40, 8, 4, 38,
               "04a7c9440b1c708db9da035767e9e62bd0e53d6f95733d96b6b4c2b7618b6d9c"),
    "alloc-outbound": (20, 9, 2, 23,
               "e80ab97adc7aa127664141cc0ab701a9c401c070d44331ab3b407d89cf580970"),
    "wrdata": (14, 5, 1, 12,
               "89cba230964f09cc0941e8328a7570357554ca6dd5d0bf174563e8d5f44dd558"),
    "fifo": (14, 5, 1, 18,
               "d2b8985270f6c52d31066fb4ca5a790b7aa835e9355104d19d893bdd379db5b6"),
    "sbuf-read-ctl": (22, 8, 2, 19,
               "ec3967a9306623cfef94effca5d510358186702658837de30fc109f32838c579"),
    "nouse": (10, 4, 1, 14,
               "85e71422fe354b3b5806f82722ea518c690b66442b23a50dffbf5394d5d404df"),
    "vbe-ex2": (12, 4, 2, 18,
               "434b1406e144f74f364851570c118c0d89e3af3b39dcdd2aea3f2ea58567c0dd"),
    "nousc-ser": (8, 4, 1, 7,
               "4e7a24384a4f456c71927f3e449c4e819510b516870141c8763826f36cde609f"),
    "sendr-done": (8, 4, 1, 7,
               "769e5222502b050f7521d3bad114cb2333161ba4953dd741a7b8a3911bb1e4c4"),
    "vbe-ex1": (8, 3, 1, 8,
               "cef85ebf26551866113489a43c0533913f02e372e42deb7b819a07708dbaca15"),
}


def test_golden_covers_every_spec():
    assert sorted(GOLDEN) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table1_result_is_unchanged(name):
    stg = load_benchmark(name)
    report = run_synthesis(
        stg, options=SynthesisOptions(verify_level="hazards")
    )
    assert report.status == "ok"
    assert report.verify.verdict is True
    result = report.result
    blif = write_synthesis_blif(result, stg.inputs, model=stg.name)
    assert (
        result.final_states, result.final_signals, result.state_signals,
        result.literals, hashlib.sha256(blif.encode("utf-8")).hexdigest(),
    ) == GOLDEN[name]
