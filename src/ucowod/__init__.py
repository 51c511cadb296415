"""Open-world object detection with unknown-class discrimination.

The package covers the full loop on synthetic data: pseudo-label selection
for unlabeled objects, an unknown-aware classification loss, pairwise
similarity training with a self-supervised phase, cluster refinement of
unknown embeddings, and the open-world evaluation protocol (known-class mAP,
wilderness impact, open-set error counts, and unknown-class mAP/recall under
optimal id matching).
"""

from .core import (
    Box,
    ClassLabel,
    Detection,
    GroundTruthObject,
    LabelKind,
    iou,
    label_for_class_id,
    pairwise_iou,
)
from .harness import (
    RefineOutcome,
    RunConfig,
    SyntheticDataset,
    SyntheticScene,
    ToyHead,
    TrainResult,
    build_training_rows,
    class_prototypes,
    detect,
    detect_with_embeddings,
    generate_dataset,
    refine_pipeline,
    train,
    train_and_score,
)
from .losses import (
    LossWeights,
    band_width,
    classification_loss_from_plan,
    classification_plan,
    l1_regression_loss,
    label_codes,
    pair_plan,
    pair_similarity_loss,
    schedule_terminated,
    steps_to_termination,
    thresholds,
    total_training_loss,
    update_lambda,
)
from .metrics import (
    EvalConfig,
    EvalReport,
    MatchResult,
    absolute_open_set_error,
    average_precision,
    evaluate,
    hungarian_assign,
    match_known_detections,
    suppress,
    uc_map,
    uc_recall,
    wilderness_impact,
)
from .pseudo_label import UlpConfig, select_pseudo_labels
from .refinement import (
    RefineResult,
    kl_divergence,
    kl_loss,
    kmeans_init,
    refine,
    select_cluster_count,
    soft_assignment,
    target_distribution,
)

__version__ = "0.1.0"
