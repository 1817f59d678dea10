from .baselines import (
    BaselineParameterError, DecisionTreeClassifier, KNNClassifier,
    RandomForestClassifier, flatten_pair_rows, train_baseline,
)
from .gradcheck import check_layer, check_model_loss
from .metrics import f_score, rejection_probability
from .surrogate import (
    SurrogateHyper, SurrogateModel, TrainingDivergedError, TrainResult,
    load_model, make_examples, mean_baseline_mse, save_model,
    train_surrogate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
