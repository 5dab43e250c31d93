#!/usr/bin/env python3
"""Run the screening gateway: one-shot demo or a TCP front door.

Demo mode seeds a registry with (untrained) checkpoints for the requested
designs, drives a mixed scenario load through a sharded
:class:`~repro.gateway.ScreeningGateway`, and prints the per-scenario
results plus the gateway health snapshot::

    python scripts/run_gateway.py --demo
    python scripts/run_gateway.py --demo --designs small small@10 --shards 2

Serve mode exposes the gateway over newline-delimited JSON on TCP (see
``repro.gateway.server`` for the wire protocol) until interrupted::

    python scripts/run_gateway.py --serve --port 7433 --root checkpoints/
    echo '{"design": "small", "scenario": "power_virus"}' | nc 127.0.0.1 7433

``--obs DIR`` wraps either mode in a ``repro.obs`` telemetry run so the
gateway's counters, gauges, and latency histograms land in
``DIR/run_report.json`` (render it with ``scripts/obs_report.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs
from repro.core.config import ModelConfig
from repro.core.inference import NoisePredictor
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import FeatureNormalizer, distance_feature
from repro.gateway import GatewayServer, ScreeningGateway
from repro.io import ExperimentRecord, format_table
from repro.pdn.designs import design_from_name
from repro.serving import PredictorRegistry

DEMO_SCENARIOS = ("power_virus", "resonance_chirp", "didt_step_train", "idle_to_turbo")


def seed_registry(root: Path, design_names: list[str]) -> None:
    """Register an (untrained) checkpoint for every missing demo design.

    Real deployments point ``--root`` at trained checkpoints; the demo only
    needs *working* predictors with the right shapes, so absent designs get
    fresh untrained weights rather than an error.
    """
    registry = PredictorRegistry(root)
    for name in design_names:
        if (root / f"{name}.npz").exists():
            continue
        design = design_from_name(name)
        model = WorstCaseNoiseNet(
            num_bumps=design.grid.num_bumps,
            config=ModelConfig(
                distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=0
            ),
        )
        normalizer = FeatureNormalizer(
            current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
        )
        predictor = NoisePredictor(
            model=model,
            normalizer=normalizer,
            distance=distance_feature(design),
            compression_rate=0.3,
        )
        registry.register(name, predictor)
        print(f"seeded untrained checkpoint for {name!r} under {root}")


def run_demo(gateway: ScreeningGateway, design_names: list[str], num_steps: int) -> None:
    """Screen every (design, scenario) pair and print results + health."""
    items = [
        (scenario, design) for design in design_names for scenario in DEMO_SCENARIOS
    ]
    results = gateway.screen(items, num_steps=num_steps, seed=7)
    records = [
        ExperimentRecord(
            "gateway_demo",
            f"{design}/{scenario}",
            {
                "worst_noise_v": float(result.worst_noise),
                "mean_noise_v": float(result.noise_map.mean()),
            },
        )
        for (scenario, design), result in zip(items, results)
    ]
    print(format_table(records, title="Gateway demo — worst-case noise per scenario"))
    health = gateway.health()
    print(f"\nhealth: accepting={health['accepting']} outstanding={health['outstanding']}")
    for shard_id, shard in sorted(health["shards"].items()):
        print(
            f"  shard {shard_id}: state={shard['state']} restarts={shard['restarts']} "
            f"resident={shard['resident']}"
        )


async def run_server(gateway: ScreeningGateway, host: str, port: int) -> None:
    """Serve the gateway over TCP until interrupted."""
    server = GatewayServer(gateway, host=host, port=port)
    bound_host, bound_port = await server.start()
    print(f"gateway listening on {bound_host}:{bound_port} (Ctrl-C to stop)")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        await gateway.aclose()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--demo", action="store_true", help="run the one-shot demo load")
    mode.add_argument("--serve", action="store_true", help="serve the TCP front door")
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT / "checkpoints",
        help="registry root holding per-design checkpoints (default: checkpoints/)",
    )
    parser.add_argument(
        "--designs", nargs="+", default=["small", "small@10"],
        help="design names served (seeded with untrained weights if absent)",
    )
    parser.add_argument("--shards", type=int, default=2, help="worker shard count")
    parser.add_argument(
        "--queue-limit", type=int, default=256, help="admission queue bound"
    )
    parser.add_argument(
        "--num-steps", type=int, default=200, help="scenario trace length (demo mode)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (serve mode)")
    parser.add_argument(
        "--port", type=int, default=7433, help="bind port, 0 = OS-assigned (serve mode)"
    )
    parser.add_argument(
        "--obs", type=Path, default=None, metavar="DIR",
        help="record a telemetry run report under DIR",
    )
    args = parser.parse_args(argv)

    if args.obs is not None:
        obs.start_run(args.obs, config={"tool": "run_gateway", "shards": args.shards})
    args.root.mkdir(parents=True, exist_ok=True)
    seed_registry(args.root, args.designs)
    gateway = ScreeningGateway(
        args.root, num_shards=args.shards, queue_limit=args.queue_limit
    )
    try:
        if args.demo:
            run_demo(gateway, args.designs, args.num_steps)
        else:
            try:
                asyncio.run(run_server(gateway, args.host, args.port))
            except KeyboardInterrupt:
                print("\nshutting down")
    finally:
        gateway.close()
        if args.obs is not None:
            report = obs.finish_run(extra={"tool": "run_gateway"})
            print(f"telemetry report: {report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
