// Grammar tests for the admission request parser (admission/request.h):
// round-trips for well-formed lines, nullopt for blank/comment lines,
// and a parse_error (never a throw) for every malformed shape,
// including the "(known: ...)" unknown-key diagnostic shared with the
// CLI's expect_known.
#include "admission/request.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace e2e::admission {
namespace {

TEST(RequestParse, BlankAndCommentLinesYieldNothing) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("   \t  ").has_value());
  EXPECT_FALSE(parse_request("# a comment").has_value());
  EXPECT_FALSE(parse_request("   # indented comment").has_value());
}

TEST(RequestParse, AdmitFullSpec) {
  const auto request = parse_request(
      "admit name=T1 period=5000 deadline=4800 phase=10 jitter=25 "
      "sub=0:700:3 sub=1:300:2:np");
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(request->ok()) << request->parse_error;
  EXPECT_EQ(request->verb, Verb::kAdmit);
  EXPECT_EQ(request->task.name, "T1");
  EXPECT_EQ(request->task.period, 5000);
  EXPECT_EQ(request->task.deadline, 4800);
  EXPECT_EQ(request->task.phase, 10);
  EXPECT_EQ(request->task.release_jitter, 25);
  ASSERT_EQ(request->task.subtasks.size(), 2u);
  EXPECT_EQ(request->task.subtasks[0].processor, 0);
  EXPECT_EQ(request->task.subtasks[0].execution_time, 700);
  EXPECT_EQ(request->task.subtasks[0].priority_level, 3);
  EXPECT_TRUE(request->task.subtasks[0].preemptible);
  EXPECT_EQ(request->task.subtasks[1].processor, 1);
  EXPECT_EQ(request->task.subtasks[1].execution_time, 300);
  EXPECT_EQ(request->task.subtasks[1].priority_level, 2);
  EXPECT_FALSE(request->task.subtasks[1].preemptible);
}

TEST(RequestParse, OmittedKeysDefaultToZero) {
  const auto request = parse_request("admit name=T2 period=2500 sub=1:120:5");
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(request->ok());
  EXPECT_EQ(request->task.deadline, 0);  // controller normalizes to period
  EXPECT_EQ(request->task.phase, 0);
  EXPECT_EQ(request->task.release_jitter, 0);
}

TEST(RequestParse, TrailingCommentIsStripped) {
  const auto request =
      parse_request("remove name=T1   # retire the old stream");
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(request->ok());
  EXPECT_EQ(request->verb, Verb::kRemove);
  EXPECT_EQ(request->task.name, "T1");
}

TEST(RequestParse, Query) {
  const auto request = parse_request("query");
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(request->ok());
  EXPECT_EQ(request->verb, Verb::kQuery);
}

TEST(RequestParse, QueryRejectsArguments) {
  const auto request = parse_request("query name=T1");
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->ok());
  EXPECT_NE(request->parse_error.find("query takes no arguments"),
            std::string::npos);
}

TEST(RequestParse, BatchVerbs) {
  for (const auto& [line, verb] :
       {std::pair{"batch-begin", Verb::kBatchBegin},
        std::pair{"batch-commit   # flush", Verb::kBatchCommit}}) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_TRUE(request->ok()) << request->parse_error;
    EXPECT_EQ(request->verb, verb) << line;
    EXPECT_EQ(parse_request(to_string(verb))->verb, verb);  // round-trip
  }
}

TEST(RequestParse, BatchVerbsRejectArguments) {
  for (const char* line : {"batch-begin name=T1", "batch-commit now=1"}) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_FALSE(request->ok()) << line;
    EXPECT_NE(request->parse_error.find("takes no arguments"),
              std::string::npos)
        << request->parse_error;
  }
}

TEST(RequestParse, UnknownVerb) {
  const auto request = parse_request("evict name=T1");
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->ok());
  EXPECT_NE(request->parse_error.find("unknown request verb 'evict'"),
            std::string::npos);
}

TEST(RequestParse, UnknownKeyListsKnownKeys) {
  const auto request = parse_request("admit name=T1 period=10 budget=3");
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->ok());
  EXPECT_NE(request->parse_error.find("unknown key 'budget'"),
            std::string::npos);
  EXPECT_NE(request->parse_error.find("(known: "), std::string::npos);
  EXPECT_NE(request->parse_error.find("period"), std::string::npos);
}

TEST(RequestParse, RemoveRejectsAdmitOnlyKeys) {
  const auto request = parse_request("remove name=T1 period=10");
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->ok());
  EXPECT_NE(request->parse_error.find("unknown key 'period'"),
            std::string::npos);
}

TEST(RequestParse, DuplicateKeysAreRejected) {
  for (const char* line : {
           "admit name=A name=B period=10 sub=0:1:0",
           "admit name=A period=10 period=20 sub=0:1:0",
           "admit name=A period=10 deadline=5 deadline=6 sub=0:1:0",
       }) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_FALSE(request->ok()) << line;
    EXPECT_NE(request->parse_error.find("duplicate key"), std::string::npos)
        << request->parse_error;
  }
}

TEST(RequestParse, MalformedTokensAreRejected) {
  for (const char* line : {
           "admit name=T1 period",        // no '='
           "admit name=T1 =5",            // empty key
           "admit name= period=10",       // empty name
           "admit period=ten name=T1",    // non-integer
           "remove",                      // missing name
           "admit period=10 sub=0:1:0",   // missing name
       }) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_FALSE(request->ok()) << line;
  }
}

TEST(RequestParse, MalformedSubtasksAreRejected) {
  for (const char* line : {
           "admit name=T1 period=10 sub=0:1",          // too few fields
           "admit name=T1 period=10 sub=0:1:0:np:np",  // too many fields
           "admit name=T1 period=10 sub=0:1:0:yes",    // bad flag
           "admit name=T1 period=10 sub=a:1:0",        // non-integer proc
       }) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_FALSE(request->ok()) << line;
  }
}

TEST(RequestParse, IdsThatWouldWrapAreRejected) {
  // 2^32 used to narrow to processor 0 / priority 0 and be admitted.
  for (const char* line : {
           "admit name=T1 period=100 sub=4294967296:10:1",
           "admit name=T1 period=100 sub=0:10:4294967297",
           "admit name=T1 period=99999999999999999999 sub=0:10:1",
       }) {
    const auto request = parse_request(line);
    ASSERT_TRUE(request.has_value()) << line;
    EXPECT_FALSE(request->ok()) << line;
    EXPECT_NE(request->parse_error.find("is out of range"), std::string::npos)
        << request->parse_error;
  }
}

}  // namespace
}  // namespace e2e::admission
