"""Beyond the paper: the library's extension features.

Two capabilities the PPoPP'14 evaluation did not cover but a
downstream user of the framework would want:

1. **double precision** -- the cost model knows fp64 doubles the value
   bytes and collapses GeForce ALU peak (1/8 on Fermi, 1/24 on Kepler),
   yet SpMV stays memory-bound, so the slowdown is the byte ratio;
2. **model-driven tuning** -- a closed-form cost model (after Choi et
   al., the paper's reference [7]) ranks the pruned space and only the
   top fraction is profiled, cutting tuning time.

Run:  python examples/extensions_tour.py
"""

import numpy as np

from repro.formats import BCCOOMatrix
from repro.gpu import GTX680, TimingModel
from repro.kernels import YaSpMVConfig, YaSpMVKernel
from repro.matrices import get_spec
from repro.tuning import AutoTuner, ModelDrivenTuner


def main() -> None:
    spec = get_spec("FEM/Accelerator")
    A = spec.load(scale=spec.scale_for_nnz(120_000))
    x = np.ones(A.shape[1])
    print(f"matrix: {spec.name} at {A.shape}, nnz {A.nnz}\n")

    # --- 1. double precision -------------------------------------------
    fmt = BCCOOMatrix.from_scipy(A, block_height=2, block_width=2)
    kernel = YaSpMVKernel()
    tm = TimingModel(GTX680)
    t32 = tm.estimate(kernel.run(fmt, x, GTX680, config=YaSpMVConfig()).stats)
    t64 = tm.estimate(
        kernel.run(fmt, x, GTX680, config=YaSpMVConfig(precision="fp64")).stats
    )
    print("precision (GTX680):")
    print(f"  fp32: {t32.t_total * 1e6:7.1f} us ({t32.bound}-bound)")
    print(f"  fp64: {t64.t_total * 1e6:7.1f} us "
          f"({t64.t_total / t32.t_total:.2f}x -- bytes, not the 24x ALU gap)")

    # --- 2. model-driven tuning ----------------------------------------
    full = AutoTuner(GTX680, keep_history=False).tune(A)
    fast = ModelDrivenTuner(GTX680, evaluate_fraction=0.15).tune(A)
    print("\ntuning:")
    print(f"  full pruned search : {full.evaluated:4d} kernel runs, "
          f"{full.wall_seconds:5.1f}s -> {full.best.gflops:.2f} GFLOPS")
    print(f"  model-driven (15%) : {fast.evaluated:4d} kernel runs, "
          f"{fast.wall_seconds:5.1f}s -> {fast.best.gflops:.2f} GFLOPS "
          f"({fast.best.time_s / full.best.time_s * 100 - 100:+.1f}% time vs optimum)")


if __name__ == "__main__":
    main()
