"""Rate sweep of the service workload: the latency at each arrival rate.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --rates 15,30,45,60,90 --seeds 1,2,3 --seconds 10

For every rate and seed it boots a fresh server, drives the open loop of
``service_mix.py`` at that rate and prints one line: scaled ``p50`` and
``p95`` latency, raw ``p95``, the median miss and hit, and how late the
generator sent (``late_p95``).  ``service_mix.RATE`` is the highest rate
whose ``p95`` stayed under ``service_mix.LATENCY_LIMIT_MS`` on every seed.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import service_mix  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")


async def _load(seed, seconds, sampler):
    circuits, warmup, schedule = service_mix.draw_corpus(
        seed, service_mix.circuit_count(seconds)
    )
    server = await service_mix.Server.boot(OUT_DIR, warmup)
    try:
        records, _start = await service_mix.drive(
            server, circuits, schedule, sampler
        )
    finally:
        await server.close()
    return records, circuits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rates", default="15,30,45,60,90")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    def ms(values, q):
        return checks.quantile(values, q) * 1e3

    for rate in [float(r) for r in args.rates.split(",")]:
        service_mix.RATE = rate
        for seed in [int(s) for s in args.seeds.split(",")]:
            with calibrate.Sampler() as sampler:
                records, circuits = asyncio.run(
                    _load(seed, args.seconds, sampler)
                )
            failures, _misses, tiers = service_mix.judge(records, circuits)
            latency = [r["latency"] for r in records]
            p95 = ms(latency, 0.95)
            print(
                f"rate={rate:g} seed={seed} requests={len(records)} "
                f"failed={len(failures)} p50={ms(latency, 0.5):.2f} "
                f"p95={p95:.2f} "
                f"raw_p95={ms([r['raw_latency'] for r in records], 0.95):.2f}"
                f" miss_p50={ms(tiers['miss'], 0.5):.2f} "
                f"hit_p50={ms(tiers['hit'], 0.5):.2f} late_p95="
                f"{ms([r['sent'] - r['due'] for r in records], 0.95):.2f} "
                f"{'under' if p95 <= service_mix.LATENCY_LIMIT_MS else 'over'}"
                f" limit", flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
