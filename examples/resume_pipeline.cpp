// Example: the full two-stage pipeline — resume block classification
// followed by intra-block information extraction — trained end to end from
// a generated corpus and applied to an unseen resume, printing the
// recovered hierarchical structure (the product surface the paper deploys
// on Baidu Cloud).
//
//   ./examples/resume_pipeline

#include <cstdio>

#include "pipeline/pipeline.h"
#include "resumegen/renderer.h"

int main() {
  using namespace resuformer;

  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 60;
  ccfg.train_docs = 12;
  ccfg.val_docs = 6;
  ccfg.test_docs = 4;
  ccfg.seed = 19;
  const resumegen::Corpus corpus = resumegen::GenerateCorpus(ccfg);

  pipeline::PipelineOptions options;
  options.pretrain_epochs = 2;
  options.finetune.epochs = 10;
  options.finetune.patience = 4;
  options.selftrain.teacher_epochs = 6;
  options.selftrain.iterations = 3;
  options.ner_data.train_sequences = 300;
  options.ner_data.val_sequences = 50;
  options.ner_data.test_sequences = 50;
  options.ner.encoder_lr = 5e-4f;
  options.ner.head_lr = 1e-3f;

  std::printf("training the full pipeline (pre-train -> fine-tune -> "
              "distant NER)...\n");
  pipeline::TrainReport report;
  auto p = pipeline::ResuFormerPipeline::TrainFromCorpus(corpus, options,
                                                         &report);
  std::printf("done: block val accuracy %.3f, NER val F1 %.3f\n\n",
              report.block_val_accuracy, report.ner_val_f1);

  const auto& test = corpus.test[0];
  std::printf("input resume (%s, %d pages):\n%s\n",
              test.record.FullName().c_str(), test.document.num_pages,
              resumegen::AsciiRender(test.document,
                                     test.document.sentence_labels).c_str());

  pipeline::ParseRequest request;
  request.document = test.document;
  const pipeline::StructuredResume parsed = p->Parse(request).resume;
  std::printf("extracted structure:\n%s\n",
              pipeline::ResuFormerPipeline::ToPrettyString(parsed).c_str());
  return 0;
}
