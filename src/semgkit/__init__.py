"""Gesture recognition from multichannel surface-EMG recordings.

The package covers the full pipeline: IIR filtering and standardization,
sliding-window segmentation with repetition-grouped cross-validation,
time-domain / band-power / phase-locking features, histogram gradient
boosting with a class-weighted softmax objective and gradient-based row
sampling, stratified bagging, hyperparameter search, and warm-start
transfer to new subjects.
"""
from .dataset import (
    Recording,
    RecordingFormatError,
    RecordingParseError,
    SplitPlan,
    SyntheticSpec,
    Window,
    generate_synthetic,
    load_recording,
    make_cv_plans,
    save_recording,
    segment,
    split_by_repetition,
)
from .dsp import (
    ChannelStats,
    DegenerateChannelError,
    SecondOrderSections,
    cascade,
    compute_stats,
    design_bandpass,
    design_notch,
    filter_channels,
    frequency_response,
    standardize,
)
from .ensemble import (
    BaggedModel,
    load_bagged,
    predict_bagged,
    save_bagged,
    stratified_kfold,
    train_bagged,
)
from .features import (
    FeatureConfig,
    FeatureExtractionError,
    TimeDomainFeatures,
    analytic_phase,
    band_power,
    extract_features,
    extract_matrix,
    feature_names,
    plv,
    plv_matrix,
    stft_psd,
    time_domain,
)
from .gbdt import (
    BinnedMatrix,
    BoostedModel,
    LossSpec,
    ModelFormatError,
    TrainParams,
    Tree,
    apply_bins,
    bin_features,
    compute_class_weights,
    detect_hard_classes,
    goss_sample,
    grad_hess,
    grow_tree,
    load_model,
    predict_label,
    predict_proba,
    predict_raw,
    save_model,
    softmax,
    train,
)
from .hpo import (
    Dimension,
    SearchSpace,
    Study,
    Trial,
    default_space,
    int_dim,
    log_dim,
    optimize,
    suggest,
    uniform_dim,
)
from .pipeline import (
    Metrics,
    PipelineConfig,
    PipelineError,
    default_config,
    emit_report,
    evaluate,
    load_config,
    run_pipeline,
)
from .transfer import (
    TransferConfig,
    TransferReport,
    transfer_report,
    warm_start,
)

__version__ = "0.1.0"
