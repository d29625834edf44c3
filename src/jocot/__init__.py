"""Trinity-network learning from noisy labels.

Two teacher modules trained side by side - a joint-loss co-regularized
pair and a cross-update pair - vote on which training instances look
clean; a student classifier is then fit on the consensus set. The
package also ships the co-training baselines, synthetic label-noise
models, and the experiment runner used to compare them.
"""

__version__ = "0.1.0"

from .data import (
    LabeledDataset,
    SplitSpec,
    Standardizer,
    SyntheticSpec,
    load_csv,
    rebalance,
    save_csv,
    split,
    synthesize,
)
from .experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    emit_metrics,
    load_config,
    load_result,
    run_experiment,
)
from .losses import (
    PROB_FLOOR,
    ce_batch,
    jocor_batch,
    make_ce_loss_fn,
    make_joint_loss_fn,
    symmetric_kl_batch,
)
from .network import (
    ModelParams,
    OptimizerState,
    TrainConfig,
    activations,
    adam_init,
    adam_step,
    forward,
    gradient,
    init_params,
    lr_at,
)
from .noise import (
    NoiseMask,
    build_noise_matrix,
    inject_noise,
    noisy_label_precision,
)
from .selection import (
    SelectionSet,
    consensus,
    remember_rate,
    small_loss_select,
)
from .training import (
    EpochMetrics,
    StudentResult,
    TeacherState,
    TeachersResult,
    evaluate,
    init_teacher_state,
    make_batches,
    pair_epoch,
    train_student,
    train_teachers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
