"""Desk-scale toolkit for multimodal prompt fusion and verification.

Library surface, one module per subsystem:

- ``numeric``: stable softmax, bilinear sampling, finite-difference
  gradient oracle.
- ``prompts``: deformable-attention visual prompt encoder and
  pluggable text embedding providers.
- ``fusion``: gated cross-attention early fusion with a background
  token.
- ``alignment``: symmetric contrastive prompt alignment, negative
  prompt construction, dataset-pure batch sampling.
- ``ranking``: exact Kendall tau, its differentiable surrogate, top-K
  query selection.
- ``losses``: box/mask losses, Hungarian assignment, composite
  objective with two-stage gating.
- ``engine``: dual-path annotation cross-verification.
- ``gradcheck``: seeded gradient-check scenarios.
- ``cli``: the ``promptkit`` command.
"""

from .alignment import (
    AlignBatch,
    AlignResult,
    Batch,
    SamplerManifest,
    align_loss,
    build_negative_prompts,
    sample_batches,
)
from .engine import (
    AnnotationSet,
    BatchVerifyResult,
    Instance,
    VerificationReport,
    batch_verify,
    cross_verify,
    retention_stats,
)
from .fusion import (
    AttnWeights,
    FfnWeights,
    FusionParams,
    FusionState,
    background_activation_stats,
    fusion_layer,
    gated_attn,
)
from .gradcheck import GRADCHECK_LOSSES, build_scenario, run_gradcheck
from .losses import (
    LossBreakdown,
    MatchWeights,
    Prediction,
    Target,
    bce_mask_loss,
    dice_loss,
    giou_loss,
    hungarian,
    iou,
    l1_box_loss,
    match_and_total_loss,
)
from .numeric import (
    GradCheckReport,
    bilinear_sample,
    compare_grads,
    finite_diff_grad,
    seeded_rng,
    softmax_rows,
    unit_rows,
)
from .prompts import (
    ConstantEmbeddings,
    DeformAttnParams,
    FeatureMap,
    FileEmbeddings,
    HashEmbeddings,
    PromptEmbedding,
    encode_visual_prompt,
    normalize,
    provide_text_embedding,
)
from .ranking import (
    OrderLossResult,
    TauResult,
    kendall_tau,
    order_loss,
    select_queries,
    soft_tau_convergence,
)

__version__ = "0.1.0"
