"""Word-meaning learning over robot manipulation experiences.

A discrete Bayesian network couples symbolic manipulation variables
(action, object features, observed effects) with binary word-presence
nodes. Structure search links each word to the variables that predict it;
the fitted model then resolves ambiguous verbal requests, flags impossible
ones, and rescores recognizer hypotheses by context. A built-in generator
recreates the training regime synthetically.

Import each name from its module: `network`, `grounding`, `structure`,
`inference`, `datagen`, `evaluation` or `cli`. The entry points are
`structure.train_model` and `inference.select_action_object`. Importing
the package itself loads none of them, and not numpy.
"""
