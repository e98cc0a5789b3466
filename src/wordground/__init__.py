"""Word-meaning learning over robot manipulation experiences.

A discrete Bayesian network couples symbolic manipulation variables
(action, object features, observed effects) with binary word-presence
nodes. Structure search links each word to the variables that predict it;
the fitted model then resolves ambiguous verbal requests, flags impossible
ones, and rescores recognizer hypotheses by context. A built-in generator
recreates the training regime synthetically.
"""

from importlib import import_module

# The names each submodule exports. A name is imported on first use, so
# `import wordground` loads no submodule (and not numpy), and a command-line
# call loads only the modules its subcommand runs.
_EXPORTS = {
    "datagen": (
        "BalanceState",
        "Corpus",
        "Lexicon",
        "NoiseProfile",
        "build_corpus",
        "corrupt",
        "default_lexicon",
        "default_noise_profile",
        "default_world",
        "generate_description",
        "sample_experience",
        "sample_experiences",
    ),
    "evaluation": (
        "CurvePoint",
        "EvalResult",
        "Instruction",
        "build_baseline_network",
        "default_instructions",
        "evaluate_instructions",
        "staged_learning",
    ),
    "grounding": ("BagOfWords", "Experience", "bag_of_words", "load_corpus", "save_corpus"),
    "inference": (
        "ActionObjectRanking",
        "NBestList",
        "SceneObject",
        "predict_compatible_set",
        "rescore_nbest",
        "select_action_object",
    ),
    "network": (
        "Network",
        "Variable",
        "affordance_variables",
        "default_affordance_parents",
        "joint_probability",
        "load_network",
        "marginal",
        "save_network",
    ),
    "structure": (
        "fit_cpts",
        "k2_select_parents",
        "learn_affordance_structure",
        "learn_word_layer",
        "structure_report",
        "train_model",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
