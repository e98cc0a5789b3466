"""Word-meaning learning over robot manipulation experiences.

A discrete Bayesian network couples symbolic manipulation variables
(action, object features, observed effects) with binary word-presence
nodes. Structure search links each word to the variables that predict it;
the fitted model then resolves ambiguous verbal requests, flags impossible
ones, and rescores recognizer hypotheses by context. A built-in generator
recreates the training regime synthetically.
"""

from .datagen import (
    BalanceState,
    Corpus,
    Lexicon,
    NoiseProfile,
    build_corpus,
    corrupt,
    default_lexicon,
    default_noise_profile,
    default_world,
    generate_description,
    sample_experience,
    sample_experiences,
)
from .evaluation import (
    CurvePoint,
    EvalResult,
    Instruction,
    build_baseline_network,
    default_instructions,
    evaluate_instructions,
    staged_learning,
)
from .grounding import (
    BagOfWords,
    Experience,
    bag_of_words,
    load_corpus,
    save_corpus,
)
from .inference import (
    ActionObjectRanking,
    NBestList,
    SceneObject,
    predict_compatible_set,
    rescore_nbest,
    select_action_object,
)
from .network import (
    Network,
    Variable,
    affordance_variables,
    default_affordance_parents,
    family_log_score,
    fit_cpts,
    joint_probability,
    load_network,
    make_network,
    marginal,
    save_network,
)
from .structure import (
    k2_select_parents,
    learn_affordance_structure,
    learn_word_layer,
    structure_report,
    train_model,
)

__all__ = [
    "ActionObjectRanking",
    "BagOfWords",
    "BalanceState",
    "Corpus",
    "CurvePoint",
    "EvalResult",
    "Experience",
    "Instruction",
    "Lexicon",
    "NBestList",
    "Network",
    "NoiseProfile",
    "SceneObject",
    "Variable",
    "affordance_variables",
    "bag_of_words",
    "build_baseline_network",
    "build_corpus",
    "corrupt",
    "default_affordance_parents",
    "default_instructions",
    "default_lexicon",
    "default_noise_profile",
    "default_world",
    "evaluate_instructions",
    "family_log_score",
    "fit_cpts",
    "generate_description",
    "joint_probability",
    "k2_select_parents",
    "learn_affordance_structure",
    "learn_word_layer",
    "load_corpus",
    "load_network",
    "make_network",
    "marginal",
    "predict_compatible_set",
    "rescore_nbest",
    "sample_experience",
    "sample_experiences",
    "save_corpus",
    "save_network",
    "select_action_object",
    "staged_learning",
    "structure_report",
    "train_model",
]
