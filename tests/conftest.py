import random

EAT_PIE = (
    "(S (NP (PRP She)) (VP (VBZ wants) (VP (TO to) (VP (VB eat) "
    "(NP (NN pie))))) (. .))"
)

SHOP = (
    "(S (PRP She) (VP (VBD bought) (NP (DT a) (NN top) (CC and) (NN bottom)) "
    "(PP (IN from) (NP (DT that) (JJ strange) (JJ little) (NN shop)))) (. .))"
)

DOG = "(S (NP (DT The) (NN dog)) (VP (VBZ naps)) (. .))"


def list_tree(objects: int) -> str:
    """A subject NP and a verb followed by ``objects`` one-word NPs."""
    nps = " ".join(f"(NP (NN item{i}))" for i in range(objects))
    return f"(S (NP (PRP She)) (VP (VBD listed) {nps}) (. .))"

LABELS = ("S", "NP", "VP", "PP", "SBAR", "ADJP", "X")
TAGS = ("DT", "NN", "VB", "IN", "JJ", "PRP", "RB")
WORDS = (
    "the", "dog", "cat", "eats", "pie", "on", "mat", "big", "red",
    "she", "runs", "fast", "home", "now",
)


def random_tree_text(rng: random.Random, max_depth: int = 8, max_branch: int = 4) -> str:
    def build(depth: int) -> str:
        if depth >= max_depth - 1 or rng.random() < 0.3:
            return f"({rng.choice(TAGS)} {rng.choice(WORDS)})"
        width = rng.randint(1, max_branch)
        kids = " ".join(build(depth + 1) for _ in range(width))
        return f"({rng.choice(LABELS)} {kids})"

    return build(0)


def random_sentence(rng: random.Random, low: int = 2, high: int = 60) -> list[str]:
    return [rng.choice(WORDS) for _ in range(rng.randint(low, high))]
