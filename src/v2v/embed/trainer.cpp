#include "v2v/embed/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include <string>

#include "v2v/common/aligned.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/numa.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/embed/huffman.hpp"
#include "v2v/embed/sigmoid_table.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/alias_table.hpp"

namespace v2v::embed {
namespace {

constexpr double kLossEps = 1e-7;  // clamp for -log terms

/// All shared state of one training run; worker threads hold a reference.
struct TrainerState {
  const TrainConfig& config;
  MatrixF syn0;      // input vectors == the embedding
  MatrixF syn1;      // output vectors (HS inner nodes or NS per-vertex)
  walk::AliasTable noise;           // NS noise distribution ~ freq^0.75
  HuffmanTree* huffman = nullptr;   // HS only
  std::vector<double> keep_probability;  // subsampling; empty = keep all
  std::atomic<std::uint64_t> tokens_processed{0};
  std::uint64_t planned_tokens = 0;

  explicit TrainerState(const TrainConfig& cfg) : config(cfg) {}
};

/// Per-thread accumulators, merged after each epoch.
struct EpochShard {
  double loss = 0.0;
  std::uint64_t examples = 0;
};

// Hogwild note: `input` and `row` may be rows of the shared syn0/syn1
// matrices concurrently touched by other workers; the kernels tolerate
// that (SIMD on the fast paths, relaxed_load/relaxed_store scalar under
// TSan, see common/kernels.hpp).

/// One positive/negative pair update against output row `row`:
/// grad = (label - sigma(f)) * lr; accumulates into `input_grad` and
/// updates the output row in place. Returns the pair's loss contribution.
/// Precondition: `input` never aliases `row` (CBOW passes the private neu1
/// buffer; SkipGram passes a syn0 row while `row` is a syn1 row), so the
/// two axpy passes equal the classic interleaved element loop.
double pair_update(const float* input, float* row, float* input_grad, std::size_t d,
                   float label, float lr) {
  const float f = kernels::dot(input, row, d);
  const float sig = sigmoid_table()(f);
  const float g = (label - sig) * lr;
  kernels::axpy(g, row, input_grad, d);
  kernels::axpy(g, input, row, d);
  const double p = label > 0.5f ? sig : 1.0f - sig;
  return -std::log(std::max(static_cast<double>(p), kLossEps));
}

/// Trains the hidden->output layer for one target given the assembled
/// input vector; fills input_grad with the back-propagated gradient.
double train_target(TrainerState& state, const float* input, float* input_grad,
                    std::uint32_t target, float lr, Rng& rng) {
  const std::size_t d = state.config.dimensions;
  kernels::fill(input_grad, 0.0f, d);
  double loss = 0.0;
  if (state.config.objective == Objective::kNegativeSampling) {
    loss += pair_update(input, state.syn1.row(target).data(), input_grad, d, 1.0f, lr);
    for (std::size_t k = 0; k < state.config.negative; ++k) {
      auto sample = static_cast<std::uint32_t>(state.noise.sample(rng));
      if (sample == target) continue;  // word2vec skips collisions
      loss += pair_update(input, state.syn1.row(sample).data(), input_grad, d, 0.0f, lr);
    }
  } else {
    const HuffmanCode& code = state.huffman->code(target);
    for (std::size_t b = 0; b < code.code.size(); ++b) {
      // Huffman branch 0 is the "positive" direction, as in word2vec.
      const float label = code.code[b] == 0 ? 1.0f : 0.0f;
      loss += pair_update(input, state.syn1.row(code.points[b]).data(), input_grad, d,
                          label, lr);
    }
  }
  return loss;
}

float current_lr(const TrainerState& state) {
  const auto done = static_cast<double>(
      state.tokens_processed.load(std::memory_order_relaxed));
  const double frac = std::min(1.0, done / static_cast<double>(state.planned_tokens));
  const double lr = state.config.initial_lr * (1.0 - frac);
  return static_cast<float>(
      std::max(lr, state.config.initial_lr * state.config.min_lr_fraction));
}

/// Per-worker trainer: owns scratch buffers and the SGD inner loop for one
/// sentence (walk). Shared by the corpus-backed and streaming drivers.
class SentenceTrainer {
 public:
  SentenceTrainer(TrainerState& state, Rng rng)
      : state_(state),
        rng_(rng),
        neu1_(state.config.dimensions),
        grad_(state.config.dimensions),
        lr_(current_lr(state)) {}

  void train_sentence(std::span<const std::uint32_t> raw_walk) {
    const std::size_t d = state_.config.dimensions;
    const std::size_t window = state_.config.window;
    const bool cbow = state_.config.architecture == Architecture::kCbow;

    sentence_.clear();
    for (const auto token : raw_walk) {
      if (!state_.keep_probability.empty() &&
          rng_.next_double() >= state_.keep_probability[token]) {
        continue;
      }
      sentence_.push_back(token);
    }

    for (std::size_t pos = 0; pos < sentence_.size(); ++pos) {
      const std::uint32_t target = sentence_[pos];
      // word2vec's randomized effective window: uniform in [1, window].
      const std::size_t reduced = rng_.next_below(window);
      const std::size_t lo = pos > window - reduced ? pos - (window - reduced) : 0;
      const std::size_t hi = std::min(sentence_.size(), pos + (window - reduced) + 1);

      if (cbow) {
        kernels::fill(neu1_.data(), 0.0f, d);
        std::size_t context_count = 0;
        for (std::size_t c = lo; c < hi; ++c) {
          if (c == pos) continue;
          kernels::add(state_.syn0.row(sentence_[c]).data(), neu1_.data(), d);
          ++context_count;
        }
        if (context_count == 0) continue;
        kernels::scale(neu1_.data(), 1.0f / static_cast<float>(context_count), d);
        shard_.loss += train_target(state_, neu1_.data(), grad_.data(), target, lr_, rng_);
        ++shard_.examples;
        for (std::size_t c = lo; c < hi; ++c) {
          if (c == pos) continue;
          kernels::add(grad_.data(), state_.syn0.row(sentence_[c]).data(), d);
        }
      } else {
        for (std::size_t c = lo; c < hi; ++c) {
          if (c == pos) continue;
          auto row = state_.syn0.row(sentence_[c]);
          shard_.loss += train_target(state_, row.data(), grad_.data(), target, lr_, rng_);
          ++shard_.examples;
          kernels::add(grad_.data(), row.data(), d);
        }
      }
    }

    since_lr_update_ += raw_walk.size();
    if (since_lr_update_ >= 10000) {
      state_.tokens_processed.fetch_add(since_lr_update_, std::memory_order_relaxed);
      since_lr_update_ = 0;
      lr_ = current_lr(state_);
    }
  }

  /// Flushes the residual token count and returns the accumulated stats.
  [[nodiscard]] EpochShard finish() {
    state_.tokens_processed.fetch_add(since_lr_update_, std::memory_order_relaxed);
    since_lr_update_ = 0;
    return shard_;
  }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  TrainerState& state_;
  Rng rng_;
  AlignedVector<float> neu1_, grad_;  // 64-byte aligned SGD scratch
  std::vector<std::uint32_t> sentence_;
  EpochShard shard_;
  float lr_;
  std::uint64_t since_lr_update_ = 0;
};

void validate_config(const TrainConfig& config) {
  if (config.dimensions == 0) throw std::invalid_argument("train: dimensions == 0");
  if (config.window == 0) throw std::invalid_argument("train: window == 0");
  if (config.epochs == 0) throw std::invalid_argument("train: epochs == 0");
}

/// NUMA page placement for a freshly constructed (hence all-zero) shared
/// matrix: stripe its pages across the nodes before values are written,
/// so Hogwild's random row traffic spreads over every node's memory
/// controllers instead of hammering the allocating thread's node. Values
/// are untouched (zeroes stay zeroes) — results are bit-identical.
void place_shared_matrix(MatrixF& m) {
  numa::first_touch_stripes(m.data(), m.rows() * m.stride() * sizeof(float),
                            numa::system_topology());
}

void initialize_vectors(TrainerState& state, std::size_t vocab_size) {
  Rng init_rng(state.config.seed);
  state.syn0 = MatrixF(vocab_size, state.config.dimensions);
  place_shared_matrix(state.syn0);
  const float inv_dims = 1.0f / static_cast<float>(state.config.dimensions);
  for (std::size_t v = 0; v < vocab_size; ++v) {
    auto row = state.syn0.row(v);
    for (auto& x : row) x = init_rng.next_float() - 0.5f;
    kernels::scale(row.data(), inv_dims, row.size());
  }
}

/// Negative-sampling noise distribution: P(v) ~ max(freq, 1)^0.75.
walk::AliasTable noise_table(std::span<const std::uint64_t> frequencies) {
  std::vector<double> weights(frequencies.size());
  for (std::size_t v = 0; v < frequencies.size(); ++v) {
    weights[v] =
        std::pow(static_cast<double>(std::max<std::uint64_t>(frequencies[v], 1)), 0.75);
  }
  return walk::AliasTable(weights);
}

/// Sets up the output layer and noise/Huffman structures from a frequency
/// profile (corpus counts, or a degree proxy for streaming). Returns the
/// HuffmanTree by value so its storage outlives the training loop.
std::unique_ptr<HuffmanTree> initialize_objective(
    TrainerState& state, std::span<const std::uint64_t> frequencies) {
  std::unique_ptr<HuffmanTree> huffman;
  if (state.config.objective == Objective::kHierarchicalSoftmax) {
    huffman = std::make_unique<HuffmanTree>(frequencies);
    state.huffman = huffman.get();
    state.syn1 = MatrixF(huffman->inner_count(), state.config.dimensions);
    place_shared_matrix(state.syn1);
  } else {
    state.syn1 = MatrixF(frequencies.size(), state.config.dimensions);
    place_shared_matrix(state.syn1);
    state.noise = noise_table(frequencies);
  }
  return huffman;
}

void initialize_subsampling(TrainerState& state,
                            std::span<const std::uint64_t> frequencies,
                            std::uint64_t total_tokens) {
  if (state.config.subsample <= 0.0 || total_tokens == 0) return;
  state.keep_probability.assign(frequencies.size(), 1.0);
  const auto total = static_cast<double>(total_tokens);
  for (std::size_t v = 0; v < frequencies.size(); ++v) {
    const double f = static_cast<double>(frequencies[v]) / total;
    if (f > state.config.subsample) {
      state.keep_probability[v] =
          std::sqrt(state.config.subsample / f) + state.config.subsample / f;
    }
  }
}

/// The one epoch loop, for corpus-backed and streaming training alike:
/// splits `items` (walks or start vertices) into the resolved work-queue
/// geometry and runs `body(trainer, epoch, begin, end)` per chunk, each
/// chunk on its own trainer whose RNG is forked per (epoch, chunk) —
/// results depend only on (seed, grain), not on which worker claims which
/// chunk. Chunks are handed out through the node-preferring NUMA queue (a
/// no-op schedule on single-node hosts), which changes claiming order
/// only, never results.
template <typename ChunkBody>
TrainResult run_training(TrainerState& state, std::size_t items,
                         ChunkBody&& body) {
  const TrainConfig& config = state.config;
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const std::size_t grain =
      config.grain != 0 ? config.grain : default_grain(items, threads);
  const std::size_t chunks = chunk_count(items, grain);
  const Rng root(config.seed ^ 0xd1b54a32d192ed03ULL);
  const NumaSchedule numa_schedule = numa::schedule();
  const auto run_epoch = [&](std::size_t epoch) {
    std::vector<EpochShard> shards(chunks);
    parallel_for_dynamic(
        threads, items, grain, numa_schedule,
        [&](std::size_t /*worker*/, std::size_t chunk, std::size_t begin,
            std::size_t end) {
          SentenceTrainer trainer(state, root.fork(epoch * chunks + chunk));
          body(trainer, epoch, begin, end);
          shards[chunk] = trainer.finish();
        });
    EpochShard totals;
    for (const auto& shard : shards) {
      totals.loss += shard.loss;
      totals.examples += shard.examples;
    }
    return totals;
  };

  WallTimer timer;
  TrainResult result;
  double prev_loss = 0.0;
  obs::MetricsRegistry* metrics = config.metrics;
  const obs::ScopedTimer train_span(metrics, "train");

  if (metrics != nullptr) {
    metrics->gauge("train.grain").set(static_cast<double>(grain));
    metrics->gauge("train.chunks").set(static_cast<double>(chunks));
    metrics->counter(std::string("train.isa.") + kernels::active_isa_name()).add(1);
  }

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const obs::ScopedTimer epoch_span(metrics, "epoch");
    const std::uint64_t tokens_before =
        state.tokens_processed.load(std::memory_order_relaxed);
    const EpochShard totals = run_epoch(epoch);
    result.stats.examples += totals.examples;
    const double mean_loss =
        totals.examples > 0 ? totals.loss / static_cast<double>(totals.examples) : 0.0;
    result.stats.epoch_loss.push_back(mean_loss);
    result.stats.epochs_run = epoch + 1;

    if (metrics != nullptr) {
      const double epoch_seconds = epoch_span.seconds();
      const std::uint64_t epoch_tokens =
          state.tokens_processed.load(std::memory_order_relaxed) - tokens_before;
      metrics->counter("train.epochs").add(1);
      metrics->counter("train.examples").add(totals.examples);
      metrics->counter("train.tokens").add(epoch_tokens);
      metrics->histogram("train.epoch_seconds", {0.0, 120.0, 240}).record(epoch_seconds);
      metrics->series("train.epoch_loss").append(mean_loss);
      metrics->series("train.lr").append(current_lr(state));
      if (epoch_seconds > 0.0) {
        const double words_per_sec =
            static_cast<double>(epoch_tokens) / epoch_seconds;
        metrics->series("train.words_per_sec").append(words_per_sec);
        metrics->gauge("train.words_per_sec").set(words_per_sec);
      }
    }

    if (config.convergence_tol > 0.0 && epoch + 1 >= config.min_epochs && epoch > 0) {
      if (prev_loss - mean_loss < config.convergence_tol * prev_loss) {
        result.stats.converged_early = true;
        break;
      }
    }
    prev_loss = mean_loss;
  }

  result.stats.train_seconds = timer.seconds();
  if (metrics != nullptr) {
    metrics->gauge("train.lr.final").set(current_lr(state));
    metrics->gauge("train.seconds").set(result.stats.train_seconds);
    if (result.stats.train_seconds > 0.0) {
      metrics->gauge("train.words_per_sec.mean")
          .set(static_cast<double>(
                   state.tokens_processed.load(std::memory_order_relaxed)) /
               result.stats.train_seconds);
    }
  }
  if (config.capture_checkpoint) {
    // The caller fills frequencies and the walk-parameter echo; this is
    // the state only the training loop knows.
    TrainerCheckpoint ckpt;
    ckpt.last_lr = current_lr(state);
    ckpt.tokens_processed = state.tokens_processed.load(std::memory_order_relaxed);
    ckpt.planned_tokens = state.planned_tokens;
    ckpt.syn1 = std::move(state.syn1);
    ckpt.architecture = config.architecture;
    ckpt.objective = config.objective;
    ckpt.dimensions = config.dimensions;
    ckpt.window = config.window;
    ckpt.negative = config.negative;
    ckpt.initial_lr = config.initial_lr;
    ckpt.min_lr_fraction = config.min_lr_fraction;
    ckpt.subsample = config.subsample;
    ckpt.seed = config.seed;
    result.checkpoint = std::move(ckpt);
  }
  result.embedding = Embedding(std::move(state.syn0));
  return result;
}

/// Corpus-backed training (cold and warm start, RAM-resident and spooled
/// corpora alike): the chunk geometry is a pure function of walk_count,
/// so the two backings train bit-identically.
TrainResult run_corpus_training(TrainerState& state,
                                const walk::CorpusReader& corpus) {
  return run_training(
      state, corpus.walk_count(),
      [&](SentenceTrainer& trainer, std::size_t /*epoch*/, std::size_t begin,
          std::size_t end) {
        // Kick off readahead for the whole chunk before the SGD loop
        // starts faulting token pages one walk at a time (no-op for the
        // in-RAM backing).
        corpus.prefetch(begin, end);
        for (std::size_t w = begin; w < end; ++w) {
          trainer.train_sentence(corpus.walk(w));
        }
      });
}

}  // namespace

TrainResult train_embedding(const walk::Corpus& corpus, std::size_t vocab_size,
                            const TrainConfig& config) {
  const walk::InMemoryCorpus reader(corpus);
  return train_embedding(static_cast<const walk::CorpusReader&>(reader),
                         vocab_size, config);
}

TrainResult train_embedding(const walk::CorpusReader& corpus,
                            std::size_t vocab_size, const TrainConfig& config) {
  validate_config(config);
  if (vocab_size == 0) throw std::invalid_argument("train: empty vocabulary");
  if (corpus.token_count() > 0 && corpus.max_token() >= vocab_size) {
    throw std::invalid_argument("train: token out of vocabulary");
  }

  TrainerState state(config);
  state.planned_tokens =
      std::max<std::uint64_t>(1, config.epochs * corpus.token_count());
  initialize_vectors(state, vocab_size);
  const auto frequencies = corpus.vertex_frequencies(vocab_size);
  const auto huffman =
      initialize_objective(state, std::span<const std::uint64_t>(frequencies));
  initialize_subsampling(state, std::span<const std::uint64_t>(frequencies),
                         corpus.token_count());

  TrainResult result = run_corpus_training(state, corpus);
  if (result.checkpoint) result.checkpoint->frequencies = frequencies;
  return result;
}

TrainResult train_embedding_resume(const walk::Corpus& corpus,
                                   const Embedding& warm_start,
                                   const TrainerCheckpoint& checkpoint,
                                   const TrainConfig& config) {
  const walk::InMemoryCorpus reader(corpus);
  return train_embedding_resume(static_cast<const walk::CorpusReader&>(reader),
                                warm_start, checkpoint, config);
}

TrainResult train_embedding_resume(const walk::CorpusReader& corpus,
                                   const Embedding& warm_start,
                                   const TrainerCheckpoint& checkpoint,
                                   const TrainConfig& config) {
  validate_config(config);
  if (config.dimensions != checkpoint.dimensions) {
    throw std::invalid_argument("resume: config/checkpoint dimensions disagree");
  }
  if (warm_start.dimensions() != config.dimensions) {
    throw std::invalid_argument("resume: warm-start dimensions disagree");
  }
  if (config.architecture != checkpoint.architecture ||
      config.objective != checkpoint.objective) {
    throw std::invalid_argument(
        "resume: architecture/objective differ from the checkpoint");
  }
  std::size_t vocab_size = warm_start.vertex_count();
  if (corpus.token_count() > 0) {
    vocab_size = std::max<std::size_t>(
        vocab_size, static_cast<std::size_t>(corpus.max_token()) + 1);
  }
  if (vocab_size == 0) throw std::invalid_argument("resume: empty vocabulary");

  TrainerState state(config);
  state.planned_tokens =
      std::max<std::uint64_t>(1, config.epochs * corpus.token_count());

  // syn0: warm rows verbatim, new vertices get the usual small random
  // init from a per-row stream, so the result is independent of how many
  // refreshes it took to reach this vocabulary.
  const std::size_t d = config.dimensions;
  state.syn0 = MatrixF(vocab_size, d);
  place_shared_matrix(state.syn0);
  for (std::size_t v = 0; v < warm_start.vertex_count(); ++v) {
    const auto src = warm_start.vector(v);
    auto dst = state.syn0.row(v);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const Rng init_root(config.seed ^ 0xa0761d6478bd642fULL);
  const float inv_dims = 1.0f / static_cast<float>(d);
  for (std::size_t v = warm_start.vertex_count(); v < vocab_size; ++v) {
    Rng row_rng = init_root.fork(v);
    auto row = state.syn0.row(v);
    for (auto& x : row) x = row_rng.next_float() - 0.5f;
    kernels::scale(row.data(), inv_dims, row.size());
  }

  const auto new_frequencies = corpus.vertex_frequencies(vocab_size);
  std::unique_ptr<HuffmanTree> huffman;
  if (config.objective == Objective::kHierarchicalSoftmax) {
    // syn1 rows are tied to Huffman tree topology, which is a pure
    // function of the stored frequency profile — so the tree must be
    // rebuilt from the checkpoint, and the vocabulary cannot grow.
    if (vocab_size > checkpoint.frequencies.size()) {
      throw std::invalid_argument(
          "resume: vocabulary grew under hierarchical softmax");
    }
    huffman = std::make_unique<HuffmanTree>(
        std::span<const std::uint64_t>(checkpoint.frequencies));
    state.huffman = huffman.get();
    if (checkpoint.syn1.rows() != huffman->inner_count() ||
        checkpoint.syn1.cols() != d) {
      throw std::invalid_argument("resume: checkpoint syn1 shape mismatch");
    }
    state.syn1 = checkpoint.syn1;
  } else {
    if (checkpoint.syn1.cols() != d || checkpoint.syn1.rows() > vocab_size) {
      throw std::invalid_argument("resume: checkpoint syn1 shape mismatch");
    }
    // Warm output rows verbatim; new vertices start at zero (the word2vec
    // convention for fresh output vectors). The noise distribution is
    // recomputed from the NEW corpus so sampling tracks current structure.
    state.syn1 = MatrixF(vocab_size, d);
    place_shared_matrix(state.syn1);
    for (std::size_t v = 0; v < checkpoint.syn1.rows(); ++v) {
      const auto src = checkpoint.syn1.row(v);
      auto dst = state.syn1.row(v);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    state.noise = noise_table(new_frequencies);
  }
  initialize_subsampling(state, std::span<const std::uint64_t>(new_frequencies),
                         corpus.token_count());

  TrainResult result = run_corpus_training(state, corpus);
  if (result.checkpoint) {
    result.checkpoint->frequencies =
        config.objective == Objective::kHierarchicalSoftmax
            ? checkpoint.frequencies
            : new_frequencies;
    result.checkpoint->tokens_processed += checkpoint.tokens_processed;
    result.checkpoint->walks_per_vertex = checkpoint.walks_per_vertex;
    result.checkpoint->walk_length = checkpoint.walk_length;
    result.checkpoint->walk_seed = checkpoint.walk_seed;
    result.checkpoint->refresh_rounds = checkpoint.refresh_rounds + 1;
  }
  return result;
}

TrainResult train_embedding_streaming(const graph::Graph& g,
                                      const walk::WalkConfig& walk_config,
                                      const TrainConfig& config) {
  validate_config(config);
  const std::size_t vocab_size = g.vertex_count();
  if (vocab_size == 0) throw std::invalid_argument("train: empty graph");

  TrainerState state(config);
  state.planned_tokens = std::max<std::uint64_t>(
      1, config.epochs * vocab_size * walk_config.walks_per_vertex *
             walk_config.walk_length);
  initialize_vectors(state, vocab_size);

  // Visit-frequency proxy: weighted out-degree + 1 (exact stationary
  // distribution for uniform walks on connected undirected graphs).
  std::vector<std::uint64_t> frequencies(vocab_size);
  std::uint64_t total_proxy = 0;
  for (graph::VertexId v = 0; v < vocab_size; ++v) {
    frequencies[v] = static_cast<std::uint64_t>(
                         std::llround(g.weighted_out_degree(v) * 16.0)) + 1;
    total_proxy += frequencies[v];
  }
  const auto huffman =
      initialize_objective(state, std::span<const std::uint64_t>(frequencies));
  initialize_subsampling(state, std::span<const std::uint64_t>(frequencies),
                         total_proxy);

  const walk::Walker walker(g, walk_config);
  const Rng walk_root(config.seed ^ 0x94d049bb133111ebULL);
  TrainResult result = run_training(
      state, vocab_size,
      [&](SentenceTrainer& trainer, std::size_t epoch, std::size_t begin,
          std::size_t end) {
        std::vector<graph::VertexId> buffer;
        buffer.reserve(walk_config.walk_length);
        for (std::size_t v = begin; v < end; ++v) {
          // Fresh walks every epoch, deterministic per (seed, epoch, v).
          Rng walk_rng = walk_root.fork(epoch * vocab_size + v);
          for (std::size_t w = 0; w < walk_config.walks_per_vertex; ++w) {
            walker.walk_from(static_cast<graph::VertexId>(v), walk_rng, buffer);
            trainer.train_sentence(buffer);
          }
        }
      });
  if (result.checkpoint) result.checkpoint->frequencies = frequencies;
  return result;
}

}  // namespace v2v::embed
