"""End-to-end demo: generate a noisy synthetic scene, run the full pipeline,
and print the fused-map metrics.

Usage: python scripts/run_demo.py [out_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voxcrf.metrics import format_report
from voxcrf.pipeline.runner import run_pipeline
from voxcrf.pipeline.synthetic import default_scene_spec, generate_synthetic


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_scene")
    spec = default_scene_spec(seed=0, frame_count=12, noise=0.25, confidence=0.6)
    manifest = generate_synthetic(spec, out)
    print(f"scene written to {out} ({spec.frame_count} frames, noise {spec.noise})")

    result = run_pipeline(manifest, out_dir=out / "out")
    print(f"fused {result.frame_count} frames into {len(result.vmap)} voxels")
    if result.metrics:
        print(format_report(*result.metrics, coverage=result.coverage), end="")
    for key, path in sorted(result.outputs.items()):
        print(f"{key}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
