"""TabBiN reproduction: structure-aware embeddings for tables with
bi-dimensional hierarchical metadata and nesting (EDBT 2025).

Subpackages
-----------
``repro.nn``         numpy autograd + transformer/GRU/CNN substrate
``repro.text``       tokenizer, vocabulary, unit lexicon, type inference
``repro.tables``     BiN table model: values, metadata trees, coordinates
``repro.metadata``   bi-GRU / CNN metadata classifiers and heuristics
``repro.core``       the TabBiN model, pre-training, composite embeddings
``repro.baselines``  TUTA-like, BioBERT-like, Word2Vec, DITTO-like
``repro.retrieval``  exact cosine top-k, LSH blocking, the int8 tier
``repro.index``      batched embedding store + persistent table/column indexes
``repro.eval``       MAP/MRR/F1 metrics and the CC/TC/EC task runners
``repro.datasets``   synthetic corpus generators for the five datasets
"""

__version__ = "1.0.0"
