#include "task/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

void expect_systems_equal(const TaskSystem& a, const TaskSystem& b) {
  ASSERT_EQ(a.processor_count(), b.processor_count());
  ASSERT_EQ(a.task_count(), b.task_count());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    const Task& ta = a.task(TaskId{static_cast<std::int32_t>(i)});
    const Task& tb = b.task(TaskId{static_cast<std::int32_t>(i)});
    EXPECT_EQ(ta.period, tb.period);
    EXPECT_EQ(ta.phase, tb.phase);
    EXPECT_EQ(ta.relative_deadline, tb.relative_deadline);
    EXPECT_EQ(ta.release_jitter, tb.release_jitter);
    EXPECT_EQ(ta.name, tb.name);
    ASSERT_EQ(ta.subtasks.size(), tb.subtasks.size());
    for (std::size_t j = 0; j < ta.subtasks.size(); ++j) {
      EXPECT_EQ(ta.subtasks[j].processor, tb.subtasks[j].processor);
      EXPECT_EQ(ta.subtasks[j].execution_time, tb.subtasks[j].execution_time);
      EXPECT_EQ(ta.subtasks[j].priority, tb.subtasks[j].priority);
      EXPECT_EQ(ta.subtasks[j].preemptible, tb.subtasks[j].preemptible);
      EXPECT_EQ(ta.subtasks[j].name, tb.subtasks[j].name);
    }
  }
}

TEST(Serialize, RoundTripsExample2) {
  const TaskSystem original = paper::example2();
  expect_systems_equal(original, from_text(to_text(original)));
}

TEST(Serialize, RoundTripsExtendedFeatures) {
  TaskSystemBuilder b{2};
  b.add_task({.period = 10, .phase = 3, .deadline = 9, .release_jitter = 2,
              .name = "with jitter"})
      .subtask(ProcessorId{0}, 4, Priority{1}, "spaced name")
      .non_preemptible()
      .subtask(ProcessorId{1}, 2, Priority{0});
  const TaskSystem original = std::move(b).build();
  const TaskSystem copy = from_text(to_text(original));
  expect_systems_equal(original, copy);
  EXPECT_FALSE(copy.task(TaskId{0}).subtasks[0].preemptible);
  EXPECT_EQ(copy.task(TaskId{0}).release_jitter, 2);
  EXPECT_EQ(copy.task(TaskId{0}).subtasks[0].name, "spaced name");
}

TEST(Serialize, TextIsHumanReadable) {
  const std::string text = to_text(paper::example2());
  EXPECT_NE(text.find("e2esync v1"), std::string::npos);
  EXPECT_NE(text.find("processors 2"), std::string::npos);
  EXPECT_NE(text.find("task 4 0 4 0 T1"), std::string::npos);
  EXPECT_NE(text.find("sub 1 3 0 1 T2,2"), std::string::npos);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const TaskSystem sys = from_text(
      "e2esync v1\n"
      "# a comment\n"
      "\n"
      "processors 1\n"
      "task 10 0 10 0 T1\n"
      "# another\n"
      "sub 0 3 0 1 T1,1\n");
  EXPECT_EQ(sys.task_count(), 1u);
  EXPECT_EQ(sys.task(TaskId{0}).period, 10);
}

TEST(Serialize, RejectsMissingHeader) {
  EXPECT_THROW((void)from_text("processors 1\n"), InvalidArgument);
}

TEST(Serialize, RejectsUnknownKeyword) {
  EXPECT_THROW((void)from_text("e2esync v1\nprocessors 1\nbogus 1\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsSubBeforeTask) {
  EXPECT_THROW((void)from_text("e2esync v1\nprocessors 1\nsub 0 1 0 1 x\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsTaskBeforeProcessors) {
  EXPECT_THROW((void)from_text("e2esync v1\ntask 10 0 10 0 T\n"), InvalidArgument);
}

TEST(Serialize, RejectsBadNumbers) {
  EXPECT_THROW((void)from_text("e2esync v1\nprocessors 1\ntask ten 0 10 0 T\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsIdsThatWouldWrap) {
  // 2^32 used to narrow to processor 0 (and priority 0) and load.
  const std::string head = "e2esync v1\nprocessors 2\ntask 10 0 10 0 T1\n";
  for (const std::string sub : {"sub 4294967296 2 0 1 S", "sub 0 2 4294967296 1 S",
                                "sub -4294967296 2 0 1 S"}) {
    try {
      (void)from_text(head + sub + "\n");
      ADD_FAILURE() << "expected InvalidArgument for " << sub;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 4"), std::string::npos) << what;
      EXPECT_NE(what.find("is out of range"), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)from_text(head + "sub 0 2 0 1x S\n"), InvalidArgument);
  EXPECT_THROW((void)from_text(head + "sub +0 2 0 1 S\n"), InvalidArgument);
}

TEST(Serialize, RejectsInvalidModel) {
  // Validation flows through TaskSystemBuilder: period 0 is rejected with
  // a line number.
  try {
    (void)from_text("e2esync v1\nprocessors 1\ntask 0 0 0 0 T\nsub 0 1 0 1 x\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Serialize, RejectsBadPreemptibleFlag) {
  EXPECT_THROW((void)from_text("e2esync v1\nprocessors 1\ntask 10 0 10 0 T\n"
                               "sub 0 1 0 2 x\n"),
               InvalidArgument);
}

TEST(Serialize, StreamInterface) {
  std::stringstream stream;
  write_system(stream, paper::example2());
  const TaskSystem copy = read_system(stream);
  EXPECT_EQ(copy.task_count(), 3u);
}

}  // namespace
}  // namespace e2e
