"""nevo: two-stage neural network training.

Stage one trains a network with minibatch Adam and retains a ring of
end-of-epoch parameter vectors.  Stage two fine-tunes the flattened
parameter vector with differential evolution seeded from that ring.
Evaluation covers clean accuracy, corruption error / mCE aggregation,
and a cost model whose operation counts are derived from layer shapes.
"""

import os

# Pin BLAS to one thread unless the caller configured otherwise.  All
# user-facing parallelism happens at the Python level (per-individual
# fitness evaluation), so results stay bitwise reproducible no matter
# how many workers are requested.  Must run before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (  # noqa: E402
    NevoError,
    ShapeMismatchError,
    LabelError,
    DataFormatError,
    ChecksumError,
    CheckpointFormatError,
    ConfigError,
    MissingArtifactError,
    UnsupportedCorruptionError,
    PopulationError,
    NumericError,
    TrainingDiverged,
)
from .rng import RngStream  # noqa: E402
from .network import (  # noqa: E402
    NetworkSpec,
    Dense,
    Conv,
    Pool,
    Activation,
    Flatten,
    param_count,
    init_params,
    forward,
    loss,
    backward,
    MODEL_ZOO,
)
from .training import TrainConfig, AdamState, CheckpointRing, adam_step, train  # noqa: E402
from .evolution import (  # noqa: E402
    DeConfig,
    Population,
    FitnessContext,
    seed_population,
    fitness,
    mutate,
    crossover,
    evolve_generation,
    run_de,
    grid_search,
    DEFAULT_GRID,
)
from .data import Dataset, load_idx, load_npy, save_npy, fetch, augment, corrupt, batches  # noqa: E402
from .evaluation import EvalReport, evaluate, mce, count_costs, report  # noqa: E402
from .persistence import Checkpoint, save_checkpoint, load_checkpoint, parse_config  # noqa: E402
from .cli import cli_main  # noqa: E402

__version__ = "0.1.0"
