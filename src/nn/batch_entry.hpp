#pragma once
// Model-level batch entries: the bridge from nn/ models to the serving
// batcher (serve/batch/).
//
// A serving client does NOT hand the runtime a model call — it hands
// an activation (embedded token rows for BERT) plus an entry name, and
// the runtime coalesces activations from many clients into one wide-M
// graph run.  make_bert_entry packages a BertMini as such an entry:
// group_rows_in = seq (one request unit = one embedded sequence),
// group_rows_out = 1 (pooled logits row), graphs built per batch size
// through BertMini::append_exec_graph and kept in the entry's M-keyed
// LRU.
//
// This is also how BERT tasks evaluate (nn/prune_experiment.hpp): the
// accuracy a task reports comes from the same graphs serving runs.
//
// Lifetime: the model must outlive the entry, and the entry must be
// re-created (re-registered) after pack_weights / clear_packed_weights
// or artifact loads into the layers — its cached graphs hold refs to
// the packed backends current when each graph was built.  Nothing
// tracks backend replacement; a fresh entry is the invalidation.

#include <memory>
#include <string>

#include "exec/batch_entry.hpp"
#include "nn/bert_mini.hpp"

namespace tilesparse {

/// Batch entry over a BertMini encoder stack.  Inputs are embed()
/// activations: (k * seq) x dim rows per request; outputs are k x
/// classes logits.  The model is serialized inside the entry (its
/// layer caches are not concurrency-safe).
std::unique_ptr<GraphBatchEntry> make_bert_entry(std::string name,
                                                 BertMini& model);

}  // namespace tilesparse
